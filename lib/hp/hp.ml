module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Slots = Smr.Slots
module Retire_bag = Smr.Retire_bag
module Pipeline = Smr.Pipeline
module Trace = Obs.Trace

let name = "HP"
let robust = true
let supports_optimistic = false
let counts_references = false
let needs_protection = true

type t = {
  registry : Slots.registry;
  stats : Stats.t;
  pipe : Mem.header Pipeline.t;
}

type handle = {
  shared : t;
  local : Slots.local;
  pl : Mem.header Pipeline.local;
  scan : Slots.scan;
}

type guard = { slot : Slots.slot }

let stats t = t.stats

let crit_enter _ = ()
let crit_exit _ = ()
let crit_refresh _ = ()
let protection_valid _ = true

let guard h = { slot = Slots.acquire h.local }
let protect g hdr = Slots.set g.slot hdr
let release g = Slots.clear g.slot

let skip_in_salvage hdr = Mem.uid hdr = Mem.phantom_uid || Mem.is_freed hdr

(* One scan-and-free pass over [bag]: the core of both the inline reclaim
   (per-handle bag and scan scratch) and the collector drain (the
   pipeline's pending bag and a collector-private scan). The caller has
   already adopted orphans and noted peaks. *)
let scan_and_free registry stats ~scan bag =
  Stats.on_heavy_fence stats;
  Slots.scan_snapshot registry scan;
  let before = Retire_bag.length bag in
  Retire_bag.filter_in_place
    (fun hdr ->
      (* Crash window: a kill mid-filter tears the bag; report_crashed (or
         scheme shutdown, when this runs on the collector domain) salvages
         it with dedup. *)
      if Fault.enabled () then Fault.hit Fault.Reclaim;
      if Slots.scan_mem scan (Mem.uid hdr) then true
      else begin
        Mem.free_mark hdr;
        Stats.on_free stats;
        false
      end)
    bag;
  if Trace.enabled () then
    Trace.emit Trace.Reclaim_pass (-1)
      (before - Retire_bag.length bag)
      (Slots.scan_size scan)

(* Paper Algorithm 2 Reclaim, inline flavour. The asymmetric-fence
   optimization makes the reclaimer pay the (counted) heavy fence so that
   TryProtect pays none. The hazard snapshot is sorted once and each
   retired uid binary-searched (Michael's amortized scan); survivors
   compact in place, so the pass allocates nothing at steady state. *)
let reclaim h =
  let t = h.shared in
  Pipeline.adopt t.pipe h.pl;
  Stats.note_peaks t.stats;
  scan_and_free t.registry t.stats ~scan:h.scan h.pl.bag

let create ?(config = Smr.Smr_intf.default_config) () =
  let registry = Slots.create () and stats = Stats.create () in
  (* The collector drain pays ONE snapshot + heavy fence for the whole
     batch of handed-off bags. *)
  let cscan = Slots.scan_create () in
  let pipe =
    Pipeline.create ~config ~stats ~dummy:Mem.phantom
      ~salvage:(Some (Mem.uid, skip_in_salvage))
      ~pass:(scan_and_free registry stats ~scan:cscan)
  in
  { registry; stats; pipe }

let register shared =
  {
    shared;
    local = Slots.register shared.registry;
    pl = Pipeline.local shared.pipe;
    scan = Slots.scan_create ();
  }

let retire h hdr =
  Mem.retire_mark hdr;
  Stats.on_retire h.shared.stats;
  let pl = h.pl in
  Retire_bag.push pl.bag hdr;
  let len = Retire_bag.length pl.bag in
  if len >= pl.grain && Pipeline.hand_off h.shared.pipe pl ~gate:len then
    reclaim h

let retire_with_children h hdr ~children:_ = retire h hdr
let incr_ref _ = ()

(* No frontier protection, no invalidation: unlink then classic retire. *)
let try_unlink h ~frontier:_ ~do_unlink ~node_header ~invalidate:_ =
  match do_unlink () with
  | None -> false
  | Some nodes ->
      List.iter (fun n -> retire h (node_header n)) nodes;
      true

let flush h = reclaim h

let unregister h =
  reclaim h;
  Pipeline.release h.shared.pipe h.pl;
  Slots.unregister h.local

let shutdown t = Pipeline.shutdown t.pipe

(* Crash recovery: announce the crash (the trace checker closes the
   victim's protection intervals at this event), withdraw its hazard
   slots, then salvage the retire bag — possibly torn by a mid-reclaim
   death — and donate it whole to the orphanage. Classic HP has no
   deferred invalidation to complete, so this is the whole obligation. *)
let report_crashed h =
  let victim_dom = Slots.dom h.local in
  Trace.emit Trace.Crash (-1) victim_dom 0;
  Slots.reap h.local;
  Pipeline.abandon h.shared.pipe h.pl

let collector_counters t = Pipeline.collector_counters t.pipe
let collector_stats t = Pipeline.collector_stats t.pipe
