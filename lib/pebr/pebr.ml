module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Slots = Smr.Slots
module Retire_bag = Smr.Retire_bag
module Pipeline = Smr.Pipeline
module Epoch = Smr.Epoch
module Trace = Obs.Trace

let name = "PEBR"
let robust = true
let supports_optimistic = true
let counts_references = false
let needs_protection = true

type entry = int * Mem.header

type t = {
  stats : Stats.t;
  config : Smr.Smr_intf.config;
  epoch : Epoch.t;
  registry : Slots.registry;
  pipe : entry Pipeline.t;
}

type handle = {
  shared : t;
  me : Epoch.participant;
  local : Slots.local;
  pl : entry Pipeline.local;
  scan : Slots.scan;
  mutable retires_since_collect : int;
}

type guard = { slot : Slots.slot }

let entry_dummy : entry = (0, Mem.phantom)
let stats t = t.stats
let global_epoch t = Epoch.current t.epoch

let crit_enter h =
  Atomic.set h.me.neutralized false;
  Epoch.pin h.shared.epoch h.me;
  (* Crash window: pinned critical section. Unlike EBR, an unreported
     victim only stalls reclamation until memory pressure neutralizes it
     (PEBR's robustness); report_crashed additionally reaps its shields. *)
  if Fault.enabled () then Fault.hit Fault.Crit

let crit_exit h = Epoch.unpin h.me
let crit_refresh h = crit_enter h

let guard h = { slot = Slots.acquire h.local }
let protect g hdr = Slots.set g.slot hdr
let release g = Slots.clear g.slot

let neutralized h = Atomic.get h.me.neutralized
let protection_valid h = not (neutralized h)

(* Reclamation under memory pressure advances the epoch anyway: laggards
   are {e neutralized} — their blanket epoch protection is withdrawn, only
   their shields remain. A participant that stays non-neutralized and
   pinned at epoch [e] still guarantees the global epoch is at most
   [e + 1], which is the grace period the freeing rule relies on. *)
let neutralize (p : Epoch.participant) = Atomic.set p.neutralized true
let force_advance epoch = Epoch.try_advance ~laggard:neutralize epoch

(* Memory pressure: the bag outgrew [neutralize_lag] reclamation
   thresholds. *)
let under_pressure (config : Smr.Smr_intf.config) bag =
  Retire_bag.length bag >= config.neutralize_lag * config.reclaim_threshold

let skip_in_salvage (_, hdr) =
  Mem.uid hdr = Mem.phantom_uid || Mem.is_freed hdr

let entry_uid (_, hdr) = Mem.uid hdr

(* Free blocks that are both epoch-ripe (grace period passed wrt
   non-neutralized threads) and unshielded. The neutralization writes in
   [force_advance] precede this shield snapshot, which is what makes the
   shield-then-validate pattern of clients sound. Shared by the inline pass
   and the collector drain; the caller has advanced the epoch and adopted
   orphans already. *)
let scan_and_free epoch registry stats ~scan bag =
  let epoch = Epoch.current epoch in
  Stats.on_heavy_fence stats;
  Slots.scan_snapshot registry scan;
  let before = Retire_bag.length bag in
  Retire_bag.filter_in_place
    (fun (e, hdr) ->
      (* Crash window: a kill mid-filter tears the bag; report_crashed (or
         scheme shutdown, for the collector's pending bag) salvages it with
         dedup. *)
      if Fault.enabled () then Fault.hit Fault.Reclaim;
      if Epoch.ripe ~epoch e && not (Slots.scan_mem scan (Mem.uid hdr)) then begin
        Mem.free_mark hdr;
        Stats.on_free stats;
        false
      end
      else true)
    bag;
  if Trace.enabled () then
    Trace.emit Trace.Reclaim_pass (-1)
      (before - Retire_bag.length bag)
      (Slots.scan_size scan)

let collect h =
  let t = h.shared in
  h.retires_since_collect <- 0;
  h.pl.since_pass <- 0;
  Stats.note_peaks t.stats;
  Epoch.try_advance t.epoch;
  if under_pressure t.config h.pl.bag then force_advance t.epoch;
  Pipeline.adopt t.pipe h.pl;
  scan_and_free t.epoch t.registry t.stats ~scan:h.scan h.pl.bag

let create ?(config = Smr.Smr_intf.default_config) () =
  let stats = Stats.create () and epoch = Epoch.create () in
  let registry = Slots.create () in
  (* Collector drain: one epoch advance (forced under pressure), one heavy
     fence and one shield snapshot for the whole batch. *)
  let cscan = Slots.scan_create () in
  let pass bag =
    Epoch.try_advance epoch;
    if under_pressure config bag then begin
      (* Force twice: entries retired at the stalled epoch [e] need the
         global epoch to reach [e + 2] before the freeing rule admits them,
         and one forced advance only gets to [e + 1]. The second call
         re-ejects the same laggards, so robustness is unchanged. *)
      force_advance epoch;
      force_advance epoch
    end;
    scan_and_free epoch registry stats ~scan:cscan bag
  in
  {
    stats;
    config;
    epoch;
    registry;
    pipe =
      Pipeline.create ~config ~stats ~dummy:entry_dummy
        ~salvage:(Some (entry_uid, skip_in_salvage))
        ~pass;
  }

let register shared =
  {
    shared;
    me = Epoch.join shared.epoch;
    local = Slots.register shared.registry;
    pl = Pipeline.local shared.pipe;
    scan = Slots.scan_create ();
    retires_since_collect = 0;
  }

(* Threshold crossed: hand the bag over, or pass inline when the pipeline
   says so. As in EBR, the fallback gate is the pass counter, and the
   epoch ticks at handoff cadence whether or not the offer lands. *)
let collect_or_handoff h =
  let t = h.shared in
  h.retires_since_collect <- 0;
  if Pipeline.running t.pipe then Epoch.try_advance t.epoch;
  if Pipeline.hand_off t.pipe h.pl ~gate:h.pl.since_pass then collect h

let retire h hdr =
  Mem.retire_mark hdr;
  Stats.on_retire h.shared.stats;
  let pl = h.pl in
  Retire_bag.push pl.bag (Epoch.current h.shared.epoch, hdr);
  h.retires_since_collect <- h.retires_since_collect + 1;
  pl.since_pass <- pl.since_pass + 1;
  if h.retires_since_collect >= pl.grain then collect_or_handoff h

let retire_with_children h hdr ~children:_ = retire h hdr
let incr_ref _ = ()

let try_unlink h ~frontier:_ ~do_unlink ~node_header ~invalidate:_ =
  match do_unlink () with
  | None -> false
  | Some nodes ->
      List.iter (fun n -> retire h (node_header n)) nodes;
      true

let flush h =
  collect h;
  collect h;
  collect h

let unregister h =
  crit_exit h;
  collect h;
  Pipeline.release h.shared.pipe h.pl;
  Slots.unregister h.local;
  Atomic.set h.me.alive false

let shutdown t = Pipeline.shutdown t.pipe

(* Crash recovery: announce the crash (closing the victim's shield
   intervals in the trace), mark the participant dead so try_advance prunes
   it, reap its shield slots, and salvage the bag — possibly torn by a
   mid-reclaim death — into the orphanage with retirement epochs intact. *)
let report_crashed h =
  let victim_dom = Slots.dom h.local in
  Trace.emit Trace.Crash (-1) victim_dom 0;
  Atomic.set h.me.alive false;
  Slots.reap h.local;
  Pipeline.abandon h.shared.pipe h.pl

let collector_counters t = Pipeline.collector_counters t.pipe
let collector_stats t = Pipeline.collector_stats t.pipe
