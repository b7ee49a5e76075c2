(** Harris's linked list (Harris, DISC 2001) with the wait-free get of
    Herlihy–Shavit — "HHSList" in the paper's evaluation — protected with
    HP++ exactly as in paper Algorithm 4.

    Traversal is {e optimistic}: it walks through chains of logically
    deleted nodes and unlinks a whole chain with one CAS. This is
    incompatible with the original HP ({!Make.create} raises
    {!Smr.Smr_intf.Unsupported_scheme}); with HP++/PEBR, protection fails
    only on invalidation/neutralization, and with EBR/NR/RC protection is
    free, so [get] is wait-free there and lock-free here (paper §4.3). *)

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
    mutable hp_anchor : S.guard;
    mutable hp_anchor_next : S.guard;
  }

  (* The pending chain unlink: CAS [a_link] from [a_expected] (pointing at
     the first deleted node of the chain) to the frontier. *)
  type 'v anchor_info = {
    a_link : 'v node Link.t;
    a_expected : 'v node Tagged.t;
    a_first : 'v node; (* = anchor_next: first node of the deleted chain *)
  }

  let create scheme =
    if not S.supports_optimistic then
      raise
        (Smr.Smr_intf.Unsupported_scheme
           ("HHSList traverses logically deleted chains, which " ^ S.name
          ^ " cannot protect (paper 2.3)"));
    { scheme; head = Link.null () }

  let scheme t = t.scheme
  let stats t = S.stats t.scheme

  let make_local handle =
    {
      handle;
      hp_prev = S.guard handle;
      hp_cur = S.guard handle;
      hp_anchor = S.guard handle;
      hp_anchor_next = S.guard handle;
    }

  let clear_local l =
    S.release l.hp_prev;
    S.release l.hp_cur;
    S.release l.hp_anchor;
    S.release l.hp_anchor_next

  let swap_prev_cur l =
    let p = l.hp_prev in
    l.hp_prev <- l.hp_cur;
    l.hp_cur <- p

  let swap_anchor_prev l =
    let a = l.hp_anchor in
    l.hp_anchor <- l.hp_prev;
    l.hp_prev <- a

  let swap_anchor_next_prev l =
    let a = l.hp_anchor_next in
    l.hp_anchor_next <- l.hp_prev;
    l.hp_prev <- a

  (* Nodes of the just-unlinked chain, from its first node up to (not
     including) the frontier. Their links are frozen (all are logically
     deleted), so this walk is deterministic. *)
  let collect_chain first until =
    let is_until n = match until with Some c -> n == c | None -> false in
    let rec walk n acc =
      if is_until n then List.rev acc
      else
        let acc = n :: acc in
        match Tagged.ptr (Link.get n.next) with
        | Some m -> walk m acc
        | None -> List.rev acc
    in
    walk first []

  let invalidate_node n = Link.mark_invalid n.next

  (* Paper Algorithm 4 TrySearch, continuation-passing: walk from
     [prev_link] (inside node [src], {!Mem.phantom} at the head) through
     logically deleted chains to the first non-deleted node with key >=
     [key], unlink the chain passed on the way, and call [k t l key prev_link
     cur_t arg] with [prev_link] holding [cur_t], whose target is that node.
     [anchor] is the pending chain unlink, if any. Raises [C.Restart] on a
     failed validation and [C.Contended] when the unlink lost a race. No
     step allocates; only meeting a deleted chain does. *)
  let rec search t l key src prev_link cur_t anchor k arg =
    let cur_t =
      C.try_protect ~src ~node_header l.hp_cur l.handle ~src_link:prev_link
        cur_t
    in
    match Tagged.ptr cur_t with
    | None -> finish t l key prev_link cur_t anchor k arg
    | Some cur ->
        Mem.check_access cur.hdr;
        let next_t = Link.get cur.next in
        if not (Tagged.is_deleted next_t) then
          if cur.key >= key then finish t l key prev_link cur_t anchor k arg
          else begin
            swap_prev_cur l;
            search t l key cur.hdr cur.next next_t None k arg
          end
        else begin
          (* [cur] is logically deleted: optimistic traversal walks through
             it, remembering where the chain started. *)
          let anchor =
            match anchor with
            | None ->
                swap_anchor_prev l;
                Some { a_link = prev_link; a_expected = cur_t; a_first = cur }
            | Some a ->
                if src == a.a_first.hdr then swap_anchor_next_prev l;
                anchor
          in
          swap_prev_cur l;
          search t l key cur.hdr cur.next next_t anchor k arg
        end

  and finish t l key prev_link cur_t anchor k arg =
    match anchor with
    | None -> (
        match Tagged.ptr cur_t with
        | Some c when Tagged.is_deleted (Link.get c.next) ->
            raise_notrace C.Contended
        | _ -> k t l key prev_link cur_t arg)
    | Some a -> (
        let cur_opt = Tagged.ptr cur_t in
        let frontier = match cur_opt with Some c -> [ c.hdr ] | None -> [] in
        let desired = Tagged.make cur_opt in
        let unlinked =
          S.try_unlink l.handle ~frontier
            ~do_unlink:(fun () ->
              if Link.cas_clean a.a_link a.a_expected desired then
                Some (collect_chain a.a_first cur_opt)
              else None)
            ~node_header ~invalidate:(List.iter invalidate_node)
        in
        if not unlinked then raise_notrace C.Contended;
        match cur_opt with
        | Some c when Tagged.is_deleted (Link.get c.next) ->
            raise_notrace C.Contended
        | _ -> k t l key a.a_link desired arg)

  (* Wait-free (under EBR/NR/RC; lock-free under HP++/PEBR) search that
     ignores logical deletion entirely and never writes. *)
  let rec get_walk t l key src prev_link cur_t =
    let cur_t =
      C.try_protect ~src ~node_header l.hp_cur l.handle ~src_link:prev_link
        cur_t
    in
    match Tagged.ptr cur_t with
    | None -> None
    | Some cur ->
        Mem.check_access cur.hdr;
        let next_t = Link.get cur.next in
        if cur.key > key then None
        else if cur.key = key then
          if Tagged.is_deleted next_t then None else Some cur.value
        else begin
          swap_prev_cur l;
          get_walk t l key cur.hdr cur.next next_t
        end

  let get t l key =
    C.with_crit l.handle (stats t) (fun () ->
        get_walk t l key Mem.phantom t.head (Link.get t.head))

  (* A node lost to a CAS race was never published: account for it as
     discarded and go round with a fresh one. *)
  let insert_at t _l key prev_link cur_t value =
    let cur_opt = Tagged.ptr cur_t in
    match cur_opt with
    | Some cur when cur.key = key -> false
    | _ ->
        let node =
          {
            hdr = Mem.make (stats t);
            key;
            value;
            next = Link.make (Tagged.make cur_opt);
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
        if
          Tagged.is_deleted next_t
          || not
               (Link.cas_clean cur.next next_t
                  (Tagged.set_bits next_t Tagged.deleted_bit))
        then raise_notrace C.Contended;
        (* Logically deleted (linearization point). Physical deletion must
           go through TryUnlink so the frontier is protected and [cur]
           invalidated before it is retired. *)
        let frontier =
          match Tagged.ptr next_t with Some n -> [ n.hdr ] | None -> []
        in
        ignore
          (S.try_unlink l.handle ~frontier
             ~do_unlink:(fun () ->
               if
                 Link.cas_clean prev_link cur_t
                   (Tagged.make (Tagged.ptr next_t))
               then Some [ cur ]
               else None)
             ~node_header ~invalidate:(List.iter invalidate_node));
        true
    | _ -> false

  let insert t l key value =
    C.with_crit l.handle (stats t) (fun () ->
        search t l key Mem.phantom t.head (Link.get t.head) None insert_at
          value)

  let remove t l key =
    C.with_crit l.handle (stats t) (fun () ->
        search t l key Mem.phantom t.head (Link.get t.head) None remove_at ())

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
