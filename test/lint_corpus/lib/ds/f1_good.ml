(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F1 good twin: the same traversal validated step by step through
   try_protect, so every dereference happens under a Validated pointer. *)

let lookup t l key =
  let rec go src link expected =
    let cur = C.try_protect ~src ~node_header l.hp link expected in
    match Tagged.ptr cur with
    | None -> None
    | Some n ->
        if n.key = key then Some n.value else go n.hdr n.next (Link.get n.next)
  in
  go Mem.phantom t.head (Link.get t.head)
