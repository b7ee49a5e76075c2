(* Allocation gates for the traversal and retry path. Minor-heap allocation
   of a single domain is deterministic, so these are exact checks, not
   timings:
   - a traversal step allocates nothing: an operation 256 nodes deep
     allocates exactly as many words as one 16 nodes deep;
   - a [with_crit] pass with no retry allocates nothing beyond its body;
   - a single-domain HashMap churn stays under a per-operation ceiling. *)

module Rng = Smr_core.Rng

(* Minor words allocated by one call of [f], after a warm-up call, net of
   the measurement itself (an allocation-free [f] reads 0). *)
let words f =
  let measure f =
    let w0 = Gc.minor_words () in
    f ();
    int_of_float (Gc.minor_words () -. w0)
  in
  f ();
  measure f - measure ignore

(* --- per-step allocation --------------------------------------------------- *)

module Depth
    (S : Smr.Smr_intf.S) (L : sig
      type 'v t
      type local

      val create : S.t -> 'v t
      val make_local : S.handle -> local
      val get : 'v t -> local -> int -> 'v option
      val insert : 'v t -> local -> int -> 'v -> bool
      val remove : 'v t -> local -> int -> bool
    end) =
struct
  (* Even keys 2..512: key 2k sits at depth k. A get of a present key and a
     remove of an absent odd key walk the read-only and the unlinking search
     to that depth; neither mutates the list. *)
  let test () =
    let scheme = S.create () in
    let t = L.create scheme in
    let lo = L.make_local (S.register scheme) in
    for k = 1 to 256 do
      assert (L.insert t lo (2 * k) k)
    done;
    let get_at depth = words (fun () -> ignore (L.get t lo (2 * depth))) in
    let remove_before depth =
      words (fun () -> assert (not (L.remove t lo ((2 * depth) - 1))))
    in
    Alcotest.(check int) "get: depth 256 = depth 16" (get_at 16) (get_at 256);
    Alcotest.(check int)
      "absent remove: depth 256 = depth 16" (remove_before 16)
      (remove_before 256)
end

module Depth_hm_hp = Depth (Hp) (Smr_ds.Hmlist.Make (Hp))
module Depth_hhs_hpp = Depth (Hp_plus) (Smr_ds.Hhslist.Make (Hp_plus))
module Depth_hhs_ebr = Depth (Ebr) (Smr_ds.Hhslist.Make (Ebr))
module Depth_hhs_pebr = Depth (Pebr) (Smr_ds.Hhslist.Make (Pebr))

(* --- with_crit without a retry --------------------------------------------- *)

let test_with_crit (module S : Smr.Smr_intf.S) () =
  let module C = Smr_ds.Ds_common.Make (S) in
  let scheme = S.create () in
  let h = S.register scheme in
  let stats = S.stats scheme in
  let body () = Some (Sys.opaque_identity 1) in
  let bare = words (fun () -> ignore (body ())) in
  let crit = words (fun () -> ignore (C.with_crit h stats body)) in
  Alcotest.(check bool) "the body itself allocates" true (bare > 0);
  Alcotest.(check int) "with_crit adds 0 words" bare crit;
  S.unregister h

(* --- per-operation ceiling ------------------------------------------------- *)

(* The benchmark's map-churn shape: one domain, 50/50 insert/remove over
   2048 keys, half prefilled, default config (inline reclamation). The op
   stream is drawn before measuring; the figure includes every retire and
   reclamation pass the churn triggers. *)
let churn_words_per_op (module S : Smr.Smr_intf.S) =
  let module M = Smr_ds.Hashmap.Make (S) in
  let scheme = S.create () in
  let t = M.create scheme in
  let h = S.register scheme in
  let lo = M.make_local h in
  let rng = Rng.create ~seed:7 in
  for k = 0 to 2047 do
    if Rng.below rng 2 = 0 then ignore (M.insert t lo k k)
  done;
  let n = 20_000 in
  let ops = Array.init n (fun _ -> Rng.below rng 4096) in
  let run () =
    Array.iter
      (fun op ->
        let key = op lsr 1 in
        if op land 1 = 0 then ignore (M.insert t lo key key)
        else ignore (M.remove t lo key))
      ops
  in
  let w = words run in
  M.clear_local lo;
  S.unregister h;
  float_of_int w /. float_of_int n

(* Measured at 15.9 / 30.0 / 23.9 / 22.6 words/op (OCaml 5.1.1, dev
   profile); each ceiling leaves about one word of headroom. Before the
   allocation-free protect/retry path the same churn took 45-100. *)
let ceilings = [ ("HP", 17); ("HP++", 31); ("EBR", 25); ("PEBR", 24) ]

let test_churn_ceiling (module S : Smr.Smr_intf.S) ceiling () =
  let per_op = churn_words_per_op (module S) in
  if per_op > float_of_int ceiling then
    Alcotest.failf "%s HashMap churn allocates %.1f words/op (ceiling %d)"
      S.name per_op ceiling

let () =
  let gated =
    List.filter_map
      (fun (module S : Smr.Smr_intf.S) ->
        Option.map (fun c -> ((module S : Smr.Smr_intf.S), c))
          (List.assoc_opt S.name ceilings))
      Schemes.all
  in
  Alcotest.run "alloc"
    [
      ( "per-step",
        [
          Alcotest.test_case "HMList/HP" `Quick Depth_hm_hp.test;
          Alcotest.test_case "HHSList/HP++" `Quick Depth_hhs_hpp.test;
          Alcotest.test_case "HHSList/EBR" `Quick Depth_hhs_ebr.test;
          Alcotest.test_case "HHSList/PEBR" `Quick Depth_hhs_pebr.test;
        ] );
      ( "with_crit",
        List.map
          (fun (module S : Smr.Smr_intf.S) ->
            Alcotest.test_case (S.name ^ " no-retry pass") `Quick
              (test_with_crit (module S)))
          Schemes.all );
      ( "churn ceiling",
        List.map
          (fun ((module S : Smr.Smr_intf.S), c) ->
            Alcotest.test_case
              (Printf.sprintf "%s <= %d words/op" S.name c)
              `Quick
              (test_churn_ceiling (module S) c))
          gated );
    ]
