(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F1 seed: the f1_good traversal, but each step reads the expected node's
   key before try_protect has validated it. A node read off [link] may be
   unlinked and freed before the protection is announced, so the early
   deref is a use-after-free window even though validation follows. *)

let lookup t l key =
  let rec go src link expected =
    match Tagged.ptr expected with
    | Some n when n.key > key -> None
    | _ -> (
        let cur = C.try_protect ~src ~node_header l.hp link expected in
        match Tagged.ptr cur with
        | None -> None
        | Some n ->
            if n.key = key then Some n.value
            else go n.hdr n.next (Link.get n.next))
  in
  go Mem.phantom t.head (Link.get t.head)
