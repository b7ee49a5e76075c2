(* smr-lint: allow R5 — internal benchmark-harness plumbing consumed only by bin/ and test/; the surface tracks the experiment set and changes too often for a separate interface to earn its keep *)
(** The benchmark matrix: every data structure of the paper's evaluation
    instantiated with every registered reclamation scheme that it accepts.
    Invalid cells (HHSList/NMTree with HP, EFRBTree with RC) are exactly the
    paper's "not applicable" entries and are absent from {!all}. *)

open Bench_types

type instance = {
  ds : string;
  scheme : string;
  run : ?config:Smr.Smr_intf.config -> cfg -> result;
  long_reads : ?config:Smr.Smr_intf.config -> writer_range:int -> cfg -> result;
}

let schemes_order = Schemes.names

let category = function
  | "HMList" | "HHSList" -> `List
  | _ -> `Other

(* Every structure of the evaluation, by name, as a runner input over any
   scheme. *)
type structure = (module Smr.Smr_intf.S) -> (module Runner.DS)

let structures : (string * structure) list =
  [
    ( "HMList",
      fun (module S) -> (module Runner.Mono (S) (Smr_ds.Hmlist.Make (S))) );
    ( "HHSList",
      fun (module S) -> (module Runner.Mono (S) (Smr_ds.Hhslist.Make (S))) );
    ( "HashMap",
      fun (module S) -> (module Runner.Mono (S) (Smr_ds.Hashmap.Make (S))) );
    ( "SkipList",
      fun (module S) -> (module Runner.Mono (S) (Smr_ds.Skiplist.Make (S))) );
    ( "NMTree",
      fun (module S) -> (module Runner.Mono (S) (Smr_ds.Nmtree.Make (S))) );
    ( "EFRBTree",
      fun (module S) -> (module Runner.Mono (S) (Smr_ds.Efrbtree.Make (S))) );
    ( "Bonsai",
      fun (module S) -> (module Runner.Mono (S) (Smr_ds.Bonsai.Make (S))) );
  ]

let ds_order = List.map fst structures

(* A cell exists unless the structure refuses the scheme when created:
   [Unsupported_scheme] is exactly the paper's "not applicable". *)
let instance ~ds (module D : Runner.DS) =
  match D.create (D.S.create ()) with
  | exception Smr.Smr_intf.Unsupported_scheme _ -> None
  | _ ->
      let module R = Runner.Make (D) in
      Some { ds; scheme = D.S.name; run = R.run; long_reads = R.run_long_reads }

let all : instance list Lazy.t =
  lazy
    (List.concat_map
       (fun (ds, make) ->
         List.filter_map (fun s -> instance ~ds (make s)) Schemes.all)
       structures)

let find ~ds ~scheme =
  List.find_opt (fun i -> i.ds = ds && i.scheme = scheme) (Lazy.force all)

let for_ds ds = List.filter (fun i -> i.ds = ds) (Lazy.force all)
