module Stats = Smr_core.Stats
module Trace = Obs.Trace

type 'e t = {
  config : Smr_intf.config;
  dummy : 'e;
  grain : int;
  salvage : (('e -> int) * ('e -> bool)) option;
  orphans : 'e Orphanage.t;
  (* Collector-domain-private accumulation: handed-off bags are folded in
     here and passed over. Touched by mutators only after
     [Collector.shutdown]'s join. *)
  pending : 'e Retire_bag.t;
  collector : 'e Retire_bag.t Collector.t option;
}

type 'e local = {
  mutable bag : 'e Retire_bag.t;
  mutable since_pass : int;
  grain : int;
}

(* Collector drain: fold the [n] handed-off bags (plus any orphans) into
   [pending], then run ONE pass for the whole batch — the cross-domain
   amortization the inline path cannot have. Returns the still-pending
   count. *)
let drain ~stats ~orphans ~pending ~pass bags n =
  for i = 0 to n - 1 do
    Retire_bag.transfer ~src:bags.(i) ~dst:pending
  done;
  Orphanage.adopt_into orphans ~dst:pending;
  if not (Retire_bag.is_empty pending) then begin
    Stats.note_peaks stats;
    pass pending
  end;
  let left = Retire_bag.length pending in
  if Trace.enabled () then Trace.emit Trace.Drain (-1) n left;
  left

let create ~(config : Smr_intf.config) ~stats ~dummy ~salvage ~pass =
  let orphans = Orphanage.create () in
  let pending = Retire_bag.create dummy in
  let collector =
    if config.async_reclaim then
      Some
        (Collector.spawn ~capacity:config.handoff_capacity
           ~length:Retire_bag.length
           ~drain:(drain ~stats ~orphans ~pending ~pass)
           ~dummy:(Retire_bag.create ~capacity:1 dummy)
           ())
    else None
  in
  let grain =
    (* Async mode hands off small bags early and often: a ring push costs
       nanoseconds, and every queued bag is unreclaimed garbage. A bigger
       grain would amortize the collector's pass only slightly better but
       widens the ring and drain-batch terms of the peak; own bag + queued
       ring must fit the inline peak envelope. *)
    if config.async_reclaim then
      min config.reclaim_threshold (max 16 (config.reclaim_threshold / 8))
    else config.reclaim_threshold
  in
  { config; dummy; grain; salvage; orphans; pending; collector }

let local (t : _ t) =
  {
    bag = Retire_bag.create ~capacity:(2 * t.config.reclaim_threshold) t.dummy;
    since_pass = 0;
    grain = t.grain;
  }

(* Fold every queued bag into [dst] so the caller's imminent pass covers
   them too: the ring drains even when the collector is starved of cpu or
   dead, which is what pins async peak garbage near the inline envelope
   instead of ring-capacity above it. *)
let absorb_queued c ~dst =
  let rec go () =
    match Collector.steal c with
    | Some b ->
        Retire_bag.transfer ~src:b ~dst;
        Collector.recycle c b;
        go ()
    | None -> ()
  in
  go ()

(* A failed or skipped handoff keeps the bag accumulating until the
   configured baseline: a starved collector degrades this path to exactly
   the inline cadence, never a denser one. *)
let fallback t c l ~gate =
  if gate >= t.config.reclaim_threshold then begin
    absorb_queued c ~dst:l.bag;
    true
  end
  else false

let hand_off t l ~gate =
  match t.collector with
  | None -> true
  | Some c when Collector.running c ->
      let full = l.bag in
      let len = Retire_bag.length full in
      (* Only small bags enter the ring. A bag that grew toward baseline
         during a ring-full spell — or that carries unripe epoch survivors
         after an inline pass — would park a near-baseline slug of garbage
         in the queue behind a starved collector (one ill-timed admission
         is exactly an inline peak's worth on top of the steady state).
         Oversized stragglers finish the inline path instead, which
         absorbs the queue anyway. *)
      if len <= 2 * l.grain && Collector.offer c full then begin
        (* the ring owns [full] now; replace it before the next push *)
        l.bag <-
          (match Collector.take_bag c with
          | Some b -> b
          | None -> Retire_bag.create ~capacity:(2 * l.grain) t.dummy);
        l.since_pass <- 0;
        if Trace.enabled () then
          Trace.emit Trace.Handoff (-1) len (Collector.occupancy c);
        false
      end
      else fallback t c l ~gate
  | Some c ->
      Collector.note_fallback c;
      fallback t c l ~gate

let running t =
  match t.collector with Some c -> Collector.running c | None -> false

let adopt t l = Orphanage.adopt_into t.orphans ~dst:l.bag
let release t l = Orphanage.add t.orphans l.bag

(* A bag whose owner died mid-pass may be torn (compacted prefix, stale
   already-processed window, unprocessed tail): dedup it in place before
   anyone adopts it. *)
let salvage t bag =
  match t.salvage with
  | Some (uid, skip) -> Retire_bag.salvage ~uid ~skip bag
  | None -> ()

let abandon t l =
  salvage t l.bag;
  Orphanage.add t.orphans l.bag

let shutdown t =
  match t.collector with
  | None -> ()
  | Some c ->
      Collector.shutdown c ~recover:(Orphanage.add t.orphans);
      (* The pending bag may hold survivors (still protected or unripe at
         the final drain) or be torn (collector killed mid-pass): salvage
         in place, then donate it whole for inline passes to adopt. *)
      salvage t t.pending;
      Orphanage.add t.orphans t.pending

let collector_stats t = Option.map Collector.stats t.collector
let collector_counters t = Option.map Collector.counters t.collector
