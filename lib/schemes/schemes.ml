let all : (module Smr.Smr_intf.S) list =
  [ (module Nr); (module Ebr); (module Pebr); (module Hp); (module Hp_plus);
    (module Rc) ]

let names = List.map (fun (module S : Smr.Smr_intf.S) -> S.name) all

let find name =
  match List.find_opt (fun (module S : Smr.Smr_intf.S) -> S.name = name) all with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "unknown scheme %S (valid: %s)" name
           (String.concat ", " names))
