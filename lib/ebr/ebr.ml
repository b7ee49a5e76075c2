module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Retire_bag = Smr.Retire_bag
module Pipeline = Smr.Pipeline
module Epoch = Smr.Epoch
module Trace = Obs.Trace

let name = "EBR"
let robust = false
let supports_optimistic = true
let counts_references = false
let needs_protection = false

type entry = int * (unit -> unit)

type t = {
  stats : Stats.t;
  epoch : Epoch.t;
  pipe : entry Pipeline.t;
}

type handle = {
  shared : t;
  me : Epoch.participant;
  dom : int; (* registering domain, stamped on Crash trace events *)
  pl : entry Pipeline.local;
  mutable defers_since_collect : int;
}

type guard = unit

let entry_dummy : entry = (0, ignore)
let stats t = t.stats
let global_epoch t = Epoch.current t.epoch
let try_advance t = Epoch.try_advance t.epoch

let crit_enter h =
  Epoch.pin h.shared.epoch h.me;
  (* Crash window: the critical section is pinned. A kill leaves this
     participant pinning the epoch forever (EBR's non-robustness) until
     report_crashed marks it dead; a stall parks the victim pinned. *)
  if Fault.enabled () then Fault.hit Fault.Crit

let crit_exit h = Epoch.unpin h.me
let crit_refresh h = crit_enter h

let guard _ = ()
let protect () _ = ()
let release () = ()
let protection_valid _ = true

(* Free every entry whose grace period has passed. Shared by the inline
   pass and the collector drain; the caller has adopted orphans already. *)
let free_ripe epoch bag =
  let epoch = Epoch.current epoch in
  let before = Retire_bag.length bag in
  Retire_bag.filter_in_place
    (fun (e, thunk) ->
      if Epoch.ripe ~epoch e then begin
        thunk ();
        false
      end
      else true)
    bag;
  if Trace.enabled () then
    Trace.emit Trace.Reclaim_pass (-1) (before - Retire_bag.length bag) epoch

let collect h =
  let t = h.shared in
  (* Crash window, deliberately placed BEFORE the filter below: EBR bags
     hold (epoch, thunk) pairs, and a bag torn mid-filter_in_place cannot
     be salvaged — closures carry no uid to dedup by and no freed-state to
     skip on. Killing at the pass entry keeps the bag consistent, so
     report_crashed can adopt it verbatim. (HP/HP++/PEBR, whose bags hold
     inspectable headers, take the harder mid-filter kill instead.) *)
  if Fault.enabled () then Fault.hit Fault.Reclaim;
  h.defers_since_collect <- 0;
  h.pl.since_pass <- 0;
  Stats.note_peaks t.stats;
  Epoch.try_advance t.epoch;
  Pipeline.adopt t.pipe h.pl;
  free_ripe t.epoch h.pl.bag

let create ?(config = Smr.Smr_intf.default_config) () =
  let stats = Stats.create () and epoch = Epoch.create () in
  (* The collector drain advances the epoch once for the whole batch and
     frees what is ripe. No fault point inside the filter, for the same
     tearing reason as [collect]: the pipeline adopts the pending bag
     verbatim ([salvage:None]). *)
  let pass bag =
    Epoch.try_advance epoch;
    free_ripe epoch bag
  in
  {
    stats;
    epoch;
    pipe = Pipeline.create ~config ~stats ~dummy:entry_dummy ~salvage:None ~pass;
  }

let register shared =
  {
    shared;
    me = Epoch.join shared.epoch;
    dom = (Domain.self () :> int);
    pl = Pipeline.local shared.pipe;
    defers_since_collect = 0;
  }

(* Threshold crossed: hand the bag to the collector, or pass inline when
   the pipeline says so. The fallback gate is the pass counter, never the
   bag length: unripe survivors keep the bag long after every pass, so a
   length gate would scan denser than the inline cadence. *)
let collect_or_handoff h =
  let t = h.shared in
  h.defers_since_collect <- 0;
  (* Keep the epoch ticking at handoff cadence, whether the offer lands or
     the ring is backed up: the collector frees a handed-off entry only
     once its grace period has passed, and on a busy machine its own
     advance attempts may lag. An attempt is one participant-list scan +
     CAS — noise next to the pass it saves. *)
  if Pipeline.running t.pipe then Epoch.try_advance t.epoch;
  if Pipeline.hand_off t.pipe h.pl ~gate:h.pl.since_pass then collect h

let defer h thunk =
  let pl = h.pl in
  Retire_bag.push pl.bag (Epoch.current h.shared.epoch, thunk);
  h.defers_since_collect <- h.defers_since_collect + 1;
  pl.since_pass <- pl.since_pass + 1;
  if h.defers_since_collect >= pl.grain then collect_or_handoff h

let retire h hdr =
  Mem.retire_mark hdr;
  Stats.on_retire h.shared.stats;
  let t = h.shared in
  defer h (fun () ->
      Mem.free_mark hdr;
      Stats.on_free t.stats)

let retire_with_children h hdr ~children:_ = retire h hdr
let incr_ref _ = ()

let try_unlink h ~frontier:_ ~do_unlink ~node_header ~invalidate:_ =
  match do_unlink () with
  | None -> false
  | Some nodes ->
      List.iter (fun n -> retire h (node_header n)) nodes;
      true

let flush h =
  (* Up to three passes so a quiescent system drains completely: each pass
     can advance the epoch by one and freeing needs a lag of two. *)
  collect h;
  collect h;
  collect h

let unregister h =
  crit_exit h;
  collect h;
  Pipeline.release h.shared.pipe h.pl;
  Atomic.set h.me.alive false

let shutdown t = Pipeline.shutdown t.pipe

(* Crash recovery: mark the participant dead — the next try_advance prunes
   it and the epoch is unpinned, which is all the "rescue" EBR admits —
   and hand its bag to the orphanage with the retirement epochs intact.
   The bag is adopted verbatim: the only reclaim-pass injection point sits
   before the filter (see [collect]), so a crashed owner cannot have left
   it torn. *)
let report_crashed h =
  Trace.emit Trace.Crash (-1) h.dom 0;
  Atomic.set h.me.alive false;
  Pipeline.abandon h.shared.pipe h.pl

let collector_counters t = Pipeline.collector_counters t.pipe
let collector_stats t = Pipeline.collector_stats t.pipe
