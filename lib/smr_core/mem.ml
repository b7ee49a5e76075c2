exception Use_after_free of int
exception Double_retire of int
exception Invalid_free of int

let state_live = 0
let state_retired = 1
let state_freed = 2

type header = { uid : int; state : int Atomic.t; refcount : int Atomic.t }

let enabled = Atomic.make true

(* Uids are drawn from per-domain blocks so header allocation does not
   contend on one global counter: a domain grabs [uid_block] ids at a time
   and hands them out locally. Uids stay globally unique (the only property
   scans rely on) but are no longer globally ordered. *)
let uid_block = 1024
let uid_counter = Atomic.make 0

type uid_cursor = { mutable next : int; mutable limit : int }

let uid_key = Domain.DLS.new_key (fun () -> { next = 0; limit = 0 })

let fresh_uid () =
  let c = Domain.DLS.get uid_key in
  if c.next >= c.limit then begin
    let base = Atomic.fetch_and_add uid_counter uid_block in
    c.next <- base;
    c.limit <- base + uid_block
  end;
  let uid = c.next in
  c.next <- uid + 1;
  uid

module Trace = Obs.Trace

let make stats =
  Stats.on_alloc stats;
  let h =
    {
      uid = fresh_uid ();
      state = Atomic.make state_live;
      refcount = Atomic.make 1;
    }
  in
  if Trace.enabled () then Trace.emit Trace.Alloc h.uid 0 0;
  h

(* A shared placeholder header: array filler for retire batches, the value
   of an empty hazard slot, the "no source" of a protect step. Never
   retired, freed or dereferenced. Its uid is -2, NOT -1: -1 is the "no
   node" sentinel of Step trace events (Ds_common.uid_of_hdr), and the two
   must stay distinguishable in traces — the replay checker rejects any
   event carrying the phantom uid. *)
let phantom_uid = -2

let phantom =
  { uid = phantom_uid; state = Atomic.make state_live; refcount = Atomic.make 1 }

let reject_phantom op h =
  if h.uid = phantom_uid then
    invalid_arg ("Mem." ^ op ^ ": phantom header escaped into a retire/free path")

let refcount h = h.refcount

let uid h = h.uid
let is_live h = Atomic.get h.state = state_live
let is_retired h = Atomic.get h.state = state_retired
let is_freed h = Atomic.get h.state = state_freed

let retire_mark h =
  reject_phantom "retire_mark" h;
  if not (Atomic.compare_and_set h.state state_live state_retired) then
    raise (Double_retire h.uid);
  if Trace.enabled () then Trace.emit Trace.Retire h.uid 0 0;
  (* Crash window: the block is marked retired but its header has not yet
     reached any retire bag. A kill here leaks the block (no survivor can
     find it) — which is exactly what dying between the mark and the push
     means, and what chaos tests must tolerate. *)
  if Fault.enabled () then Fault.hit Fault.Retire

let free_mark h =
  reject_phantom "free_mark" h;
  if not (Atomic.compare_and_set h.state state_retired state_freed) then
    raise (Invalid_free h.uid);
  if Trace.enabled () then Trace.emit Trace.Free h.uid 0 0

let free_mark_cascade h =
  reject_phantom "free_mark_cascade" h;
  let s = Atomic.get h.state in
  if s = state_freed || not (Atomic.compare_and_set h.state s state_freed)
  then raise (Invalid_free h.uid);
  if Trace.enabled () then Trace.emit Trace.Free h.uid 1 0

let check_access h =
  if Atomic.get enabled && Atomic.get h.state = state_freed then
    raise (Use_after_free h.uid)

let set_checking b = Atomic.set enabled b
let checking () = Atomic.get enabled
