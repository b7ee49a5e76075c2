(** Harris–Michael linked list (Michael, SPAA 2002): the HP-compatible,
    pessimistic ordered list of the paper's §2.2.

    Traversal is hand-over-hand: each step protects the next node and
    validates with the over-approximation "the previous link still holds the
    node, untagged" — so the traversal never steps out of a logically
    deleted node and instead eagerly unlinks it. Works with every scheme. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
module Stats = Smr_core.Stats

module Make (S : Smr.Smr_intf.S) = struct
  module C = Ds_common.Make (S)

  type 'v node = {
    hdr : Mem.header;
    key : int;
    value : 'v;
    next : 'v node Link.t;
  }

  let node_header n = n.hdr

  type 'v t = { scheme : S.t; head : 'v node Link.t }

  type local = {
    handle : S.handle;
    mutable hp_prev : S.guard;
    mutable hp_cur : S.guard;
  }

  let create scheme = { scheme; head = Link.null () }
  let scheme t = t.scheme
  let stats t = S.stats t.scheme

  let make_local handle =
    { handle; hp_prev = S.guard handle; hp_cur = S.guard handle }

  let clear_local l =
    S.release l.hp_prev;
    S.release l.hp_cur

  let swap_guards l =
    let p = l.hp_prev in
    l.hp_prev <- l.hp_cur;
    l.hp_cur <- p

  (* Walk from [prev_link] to the first node with key >= [key], unlinking
     logically deleted nodes on the way, and call [k t l key prev_link cur_t
     arg] there: [cur_t] is the current record of [prev_link] (the expected
     value for a subsequent CAS) and its target the candidate node. Raises
     [C.Restart] on a failed validation and [C.Contended] when a cleanup CAS
     lost a race. Continuation-passing so that reaching the position
     allocates nothing. *)
  let rec find t l key prev_link cur_t k arg =
    match Tagged.ptr cur_t with
    | None -> k t l key prev_link cur_t arg
    | Some cur ->
        if
          not
            (C.protect_pessimistic ~src:Mem.phantom ~node_header l.hp_cur
               l.handle ~src_link:prev_link cur_t)
        then raise_notrace C.Restart;
        Mem.check_access cur.hdr;
        let next_t = Link.get cur.next in
        if Tagged.is_deleted next_t then begin
          (* [cur] is logically deleted: unlink it before moving on (the
             pessimism HP requires). *)
          let desired = Tagged.make (Tagged.ptr next_t) in
          if not (Link.cas_clean prev_link cur_t desired) then
            raise_notrace C.Contended;
          S.retire l.handle cur.hdr;
          find t l key prev_link desired k arg
        end
        else if cur.key >= key then k t l key prev_link cur_t arg
        else begin
          swap_guards l;
          find t l key cur.next next_t k arg
        end

  let get_at _t _l key _prev_link cur_t () =
    match Tagged.ptr cur_t with
    | Some cur when cur.key = key -> Some cur.value
    | _ -> None

  (* A node lost to a CAS race was never published: account for it as
     discarded and go round with a fresh one. *)
  let insert_at t _l key prev_link cur_t value =
    match Tagged.ptr cur_t with
    | Some cur when cur.key = key -> false
    | _ ->
        let node =
          {
            hdr = Mem.make (stats t);
            key;
            value;
            next = Link.make (Tagged.make (Tagged.ptr cur_t));
          }
        in
        if Link.cas_clean prev_link cur_t (Tagged.make (Some node)) then true
        else begin
          Stats.on_discard (stats t);
          raise_notrace C.Contended
        end

  let remove_at _t l key prev_link cur_t () =
    match Tagged.ptr cur_t with
    | Some cur when cur.key = key ->
        let next_t = Link.get cur.next in
        (* a deleted [next_t] means someone else won *)
        if
          Tagged.is_deleted next_t
          || not
               (Link.cas_clean cur.next next_t
                  (Tagged.set_bits next_t Tagged.deleted_bit))
        then raise_notrace C.Contended;
        (* Logical deletion done; physically unlink if we can, else a later
           traversal will. Only the unlinker retires. *)
        if Link.cas_clean prev_link cur_t (Tagged.make (Tagged.ptr next_t))
        then S.retire l.handle cur.hdr;
        true
    | _ -> false

  let get t l key =
    C.with_crit l.handle (stats t) (fun () ->
        find t l key t.head (Link.get t.head) get_at ())

  let insert t l key value =
    C.with_crit l.handle (stats t) (fun () ->
        find t l key t.head (Link.get t.head) insert_at value)

  let remove t l key =
    C.with_crit l.handle (stats t) (fun () ->
        find t l key t.head (Link.get t.head) remove_at ())

  (* Quiescent helpers (single-threaded use only). *)

  let to_list t =
    let rec walk acc tg =
      match Tagged.ptr tg with
      | None -> List.rev acc
      | Some n ->
          let next_t = Link.get_quiescent n.next in
          let acc =
            if Tagged.is_deleted next_t then acc else (n.key, n.value) :: acc
          in
          walk acc next_t
    in
    walk [] (Link.get_quiescent t.head)

  let size t = List.length (to_list t)

  (* Every node physically linked from the head must not be freed; walks
     marked nodes too. Quiescent test invariant. *)
  let assert_reachable_not_freed t =
    let rec walk tg =
      match Tagged.ptr tg with
      | None -> ()
      | Some n ->
          assert (not (Mem.is_freed n.hdr));
          walk (Link.get_quiescent n.next)
    in
    walk (Link.get_quiescent t.head)
end
