(* Tests for the asynchronous reclamation pipeline: the bounded MPSC
   handoff ring and collector domain (lib/smr/collector.ml), retire-bag
   growth/transfer/salvage, and the contracts of the shared pipeline
   (lib/smr/pipeline.ml) on each of its four instances — HP, HP++, EBR and
   PEBR: clean shutdown drains everything, a stalled or dead collector
   degrades to inline reclamation with bounded garbage and no lost or
   double-freed blocks, and the handoff grain never exceeds a small
   threshold. The fault plan is global, so every test touching it resets
   on entry. *)

module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Pool = Smr_core.Domain_pool
module Collector = Smr.Collector
module Retire_bag = Smr.Retire_bag
module Trace = Obs.Trace
module Check = Obs.Check

let base = Smr.Smr_intf.default_config

(* --- retire bags: growth, transfer, in-place salvage --------------------- *)

(* Pin: bags grow past their initial capacity. A fallback path can keep
   pushing into a bag beyond the 2*reclaim_threshold it was sized for, and
   a steal appends whole queued bags to it; neither may drop entries. *)
let test_bag_growth () =
  let b = Retire_bag.create ~capacity:4 (-1) in
  for i = 0 to 99 do
    Retire_bag.push b i
  done;
  Alcotest.(check int) "grew past initial capacity" 100 (Retire_bag.length b);
  Alcotest.(check int) "order preserved" 57 (Retire_bag.get b 57);
  Retire_bag.clear b;
  Alcotest.(check bool) "clear empties" true (Retire_bag.is_empty b)

let test_bag_transfer () =
  let src = Retire_bag.create ~capacity:2 (-1) in
  let dst = Retire_bag.create ~capacity:2 (-1) in
  List.iter (Retire_bag.push dst) [ 10; 11 ];
  List.iter (Retire_bag.push src) [ 1; 2; 3; 4; 5 ];
  Retire_bag.transfer ~src ~dst;
  Alcotest.(check bool) "src emptied" true (Retire_bag.is_empty src);
  Alcotest.(check (list int)) "dst appended in order" [ 10; 11; 1; 2; 3; 4; 5 ]
    (Retire_bag.to_list dst);
  (* transferring an empty bag is a no-op *)
  Retire_bag.transfer ~src ~dst;
  Alcotest.(check int) "no-op on empty src" 7 (Retire_bag.length dst)

let test_bag_salvage_in_place () =
  let stats = Stats.create () in
  let a = Mem.make stats and b = Mem.make stats and c = Mem.make stats in
  Mem.retire_mark a;
  Mem.retire_mark b;
  Mem.retire_mark c;
  Mem.free_mark c;
  let bag = Retire_bag.create Mem.phantom in
  (* torn shape: compacted survivor, stale duplicate of it, a freed block,
     and dummy filler exposed by a mid-filter death *)
  List.iter (Retire_bag.push bag) [ a; b; a; c; Mem.phantom ];
  Retire_bag.salvage
    ~uid:Mem.uid
    ~skip:(fun h -> Mem.uid h = Mem.phantom_uid || Mem.is_freed h)
    bag;
  Alcotest.(check (list int)) "dedup, drop freed and phantom, keep order"
    [ Mem.uid a; Mem.uid b ]
    (List.map Mem.uid (Retire_bag.to_list bag))

(* --- the handoff ring and collector domain ------------------------------- *)

let test_ring_basic () =
  Fault.reset ();
  let drained = Atomic.make 0 in
  let mk () = Retire_bag.create ~capacity:4 0 in
  let c =
    Collector.spawn ~capacity:4
      ~drain:(fun bags n ->
        for i = 0 to n - 1 do
          ignore (Atomic.fetch_and_add drained (Retire_bag.length bags.(i)));
          Retire_bag.clear bags.(i)
        done;
        0)
      ~dummy:(mk ()) ()
  in
  Alcotest.(check bool) "spawned running" true (Collector.running c);
  Alcotest.(check int) "capacity as requested" 4 (Collector.capacity c);
  (* one-cell rings cannot tell full from writable; pin the clamp *)
  let tiny =
    Collector.spawn ~capacity:1 ~drain:(fun _ _ -> 0) ~dummy:(mk ()) ()
  in
  Alcotest.(check int) "capacity 1 clamped to 2" 2 (Collector.capacity tiny);
  Collector.shutdown tiny ~recover:ignore;
  for i = 1 to 10 do
    let b = match Collector.take_bag c with Some b -> b | None -> mk () in
    Retire_bag.push b i;
    (* the consumer is live, so a full ring is transient: spin until the
       offer lands *)
    while not (Collector.offer c b) do
      Domain.cpu_relax ()
    done
  done;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get drained < 10 && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "every element drained" 10 (Atomic.get drained);
  Collector.shutdown c ~recover:(fun _ ->
      Alcotest.fail "clean shutdown left bags queued");
  Alcotest.(check bool) "stopped, not dead" false (Collector.dead c);
  let k = Collector.counters c in
  Alcotest.(check int) "handoffs counted" 10 k.Collector.handoffs;
  Alcotest.(check bool) "drains counted" true (k.Collector.drains > 0);
  Alcotest.(check int) "bags accounted" 10 k.Collector.drained_bags;
  (* idempotent *)
  Collector.shutdown c ~recover:(fun _ -> Alcotest.fail "second shutdown")

(* A stalled collector: the ring fills, [offer] rejects without blocking,
   and nothing handed over is lost — on release/shutdown every queued bag
   is either drained or recovered. *)
let test_ring_full_rejects_and_recovers () =
  Fault.reset ();
  let mk () = Retire_bag.create ~capacity:2 0 in
  let drained = ref 0 and recovered = ref 0 in
  let c =
    Collector.spawn ~capacity:2
      ~drain:(fun bags n ->
        for i = 0 to n - 1 do
          drained := !drained + Retire_bag.length bags.(i);
          Retire_bag.clear bags.(i)
        done;
        0)
      ~dummy:(mk ()) ()
  in
  Fault.arm ~point:Fault.Collector ~action:Fault.Stall ();
  Fault.await_stalled ();
  let offer_one v =
    let b = mk () in
    Retire_bag.push b v;
    Collector.offer c b
  in
  Alcotest.(check bool) "first offer fits" true (offer_one 1);
  Alcotest.(check bool) "second offer fits" true (offer_one 2);
  Alcotest.(check bool) "third rejected: ring full" false (offer_one 3);
  Alcotest.(check int) "occupancy at capacity" 2 (Collector.occupancy c);
  let k = Collector.counters c in
  Alcotest.(check int) "two handoffs" 2 k.Collector.handoffs;
  Alcotest.(check int) "one fallback" 1 k.Collector.fallbacks;
  Fault.release ();
  Collector.shutdown c ~recover:(fun b ->
      recovered := !recovered + Retire_bag.length b);
  Alcotest.(check int) "nothing lost" 2 (!drained + !recovered);
  Fault.reset ()

(* --- the pipeline's four instances ---------------------------------------- *)

(* HP, HP++, EBR and PEBR share one pipeline; each test body below runs on
   every one of them. The hazard schemes gate their inline fallback on bag
   length, the epoch schemes on entries pushed since the last pass or
   handoff (their unripe survivors keep the bag long after a pass). *)
let pipeline_schemes = List.map Schemes.find [ "HP"; "HP++"; "EBR"; "PEBR" ]
let gates_on_passes name = name = "EBR" || name = "PEBR"

let counters (type a) (module S : Smr.Smr_intf.S with type t = a) (t : a) =
  match S.collector_stats t with
  | Some st -> st.Collector.ctrs
  | None -> Alcotest.failf "async %s has no collector" S.name

let events_of snap k =
  List.filter
    (fun (e : Trace.event) -> e.Trace.kind = k)
    (Array.to_list snap.Trace.events)

(* After shutdown every handed-off block is freed or orphaned: one
   surviving handle's flush adopts and frees the rest — nothing is
   protected or pinned any more. *)
let check_drains_to_zero (type a) (module S : Smr.Smr_intf.S with type t = a)
    (t : a) =
  let survivor = S.register t in
  S.flush survivor;
  Alcotest.(check int)
    (S.name ^ ": zero residue after shutdown + survivor flush")
    0
    (Stats.unreclaimed (S.stats t));
  Alcotest.(check int)
    (S.name ^ ": freed exactly what was allocated")
    (Stats.allocated (S.stats t))
    (Stats.freed (S.stats t));
  S.unregister survivor

let clean_shutdown (module S : Smr.Smr_intf.S) () =
  Fault.reset ();
  let cfg =
    { base with reclaim_threshold = 16; async_reclaim = true;
      handoff_capacity = 4 }
  in
  Trace.enable ~capacity:(1 lsl 16) ();
  let t = S.create ~config:cfg () in
  ignore
    (Pool.run ~n:3 (fun _ ->
         let h = S.register t in
         for _ = 1 to 500 do
           S.retire h (Mem.make (S.stats t))
         done;
         S.flush h;
         S.unregister h));
  S.shutdown t;
  check_drains_to_zero (module S) t;
  Trace.disable ();
  let snap = Trace.snapshot () in
  Trace.reset ();
  Alcotest.(check bool) "handoffs traced" true
    (events_of snap Trace.Handoff <> []);
  Alcotest.(check bool) "drain cycles traced" true
    (events_of snap Trace.Drain <> []);
  (match Check.run_snapshot snap with
  | Ok _ -> ()
  | Error (v :: rest) ->
      Alcotest.failf "async trace violation: %s (+%d more)"
        (Format.asprintf "%a" Check.pp_violation v)
        (List.length rest)
  | Error [] -> assert false);
  Alcotest.(check bool) "collector saw the handoffs" true
    ((counters (module S) t).Collector.handoffs > 0)

(* A stalled collector degrades to bounded inline reclamation, never at a
   denser cadence than inline mode. *)
let stalled_collector (module S : Smr.Smr_intf.S) () =
  Fault.reset ();
  let threshold = 8 and retires = 200 in
  let cfg =
    { base with reclaim_threshold = threshold; async_reclaim = true;
      handoff_capacity = 1 }
  in
  let t = S.create ~config:cfg () in
  let h = S.register t in
  Fault.arm ~point:Fault.Collector ~action:Fault.Stall ();
  Fault.await_stalled ();
  Trace.enable ~capacity:(1 lsl 14) ();
  for _ = 1 to retires do
    S.retire h (Mem.make (S.stats t))
  done;
  Trace.disable ();
  let snap = Trace.snapshot () in
  Trace.reset ();
  let k = counters (module S) t in
  (* the requested capacity of 1 is clamped to the 2-cell minimum; the
     stalled ring fills, every further crossing falls back inline, and the
     fallback passes steal the queued bags back out — so the ring cycles
     (handoffs keep landing) and no handed-off bag ever waits on the
     stalled domain *)
  Alcotest.(check bool) "handoffs landed" true (k.Collector.handoffs >= 2);
  Alcotest.(check bool) "fallbacks counted" true (k.Collector.fallbacks > 0);
  Alcotest.(check bool) "queued bags stolen into inline scans" true
    (k.Collector.steals > 0);
  Alcotest.(check int) "stall means the collector itself drained nothing" 0
    k.Collector.drained_bags;
  let peak = Stats.unreclaimed (S.stats t) in
  if peak > 64 then
    Alcotest.failf "%s: garbage %d not bounded by the inline fallback" S.name
      peak;
  (* the collector is parked, so every pass is a mutator's fallback *)
  let passes = events_of snap Trace.Reclaim_pass in
  Alcotest.(check bool) "fallback passes ran" true (passes <> []);
  Alcotest.(check bool) "no denser than the inline cadence" true
    (List.length passes * threshold <= retires);
  (if gates_on_passes S.name then begin
     (* pass-counter gate: a pass resets the gate whatever survives it, so
        handoffs resume after the first fallback instead of ratcheting
        into a pass per crossing *)
     let first_pass = (List.hd passes).Trace.seq in
     Alcotest.(check bool) "handoffs resume after a fallback pass" true
       (List.exists
          (fun (e : Trace.event) -> e.Trace.seq > first_pass)
          (events_of snap Trace.Handoff))
   end
   else
     (* length gate: a pass runs only on a baseline-long bag, and with
        nothing protected it frees all of it *)
     List.iter
       (fun (e : Trace.event) ->
         if e.Trace.a < threshold then
           Alcotest.failf "%s: fallback pass freed %d < %d" S.name e.Trace.a
             threshold)
       passes);
  Fault.release ();
  S.flush h;
  S.unregister h;
  S.shutdown t;
  check_drains_to_zero (module S) t;
  Fault.reset ()

(* A dead collector: queued and pending bags are salvaged, none is lost and
   none freed twice. *)
let killed_collector (module S : Smr.Smr_intf.S) () =
  Fault.reset ();
  let cfg =
    { base with reclaim_threshold = 8; async_reclaim = true;
      handoff_capacity = 2 }
  in
  let t = S.create ~config:cfg () in
  let h = S.register t in
  Fault.arm ~point:Fault.Collector ~action:Fault.Kill ~after:3 ();
  (* the collector hits the point on every loop iteration, so the kill
     fires on its own; retire meanwhile to race handoffs against it *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Fault.fired ())) && Unix.gettimeofday () < deadline do
    S.retire h (Mem.make (S.stats t))
  done;
  Alcotest.(check bool) "collector killed" true (Fault.fired ());
  for _ = 1 to 160 do
    S.retire h (Mem.make (S.stats t))
  done;
  Alcotest.(check bool) "mutator fell back inline after the death" true
    ((counters (module S) t).Collector.fallbacks > 0);
  S.flush h;
  S.unregister h;
  (* shutdown salvages anything the dead collector left queued or pending *)
  S.shutdown t;
  check_drains_to_zero (module S) t;
  Fault.reset ()

(* The handoff grain is [min threshold (max 16 (threshold / 8))] and never
   moves: with a threshold of 8, every handed-off bag holds 8 entries,
   across as many drains as the collector runs. Each round hands one bag
   over and waits for the collector to drain it, so the ring never fills
   and no bag grows past the grain while waiting. *)
let grain_within_threshold (module S : Smr.Smr_intf.S) () =
  Fault.reset ();
  let threshold = 8 and rounds = 6 in
  let cfg =
    { base with reclaim_threshold = threshold; async_reclaim = true }
  in
  let t = S.create ~config:cfg () in
  let h = S.register t in
  Trace.enable ~capacity:(1 lsl 14) ();
  let deadline = Unix.gettimeofday () +. 5.0 in
  for round = 1 to rounds do
    while (counters (module S) t).Collector.handoffs < round do
      S.retire h (Mem.make (S.stats t))
    done;
    while
      (counters (module S) t).Collector.drained_bags < round
      && Unix.gettimeofday () < deadline
    do
      Unix.sleepf 1e-4
    done
  done;
  Trace.disable ();
  let snap = Trace.snapshot () in
  Trace.reset ();
  Alcotest.(check bool) "several drains ran" true
    ((counters (module S) t).Collector.drained_bags >= rounds);
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.a > threshold then
        Alcotest.failf "%s: handed off a bag of %d > threshold %d" S.name
          e.Trace.a threshold)
    (events_of snap Trace.Handoff);
  S.flush h;
  S.unregister h;
  S.shutdown t;
  check_drains_to_zero (module S) t

let pipeline_cases s =
  [
    Alcotest.test_case "clean shutdown drains all bags" `Quick
      (clean_shutdown s);
    Alcotest.test_case "stalled collector: bounded inline fallback" `Quick
      (stalled_collector s);
    Alcotest.test_case "killed collector: salvage, no double free" `Quick
      (killed_collector s);
    Alcotest.test_case "handoff grain within a threshold of 8" `Quick
      (grain_within_threshold s);
  ]

(* --- every scheme: async smoke, multi-domain churn drains to zero -------- *)

let async_smoke (module S : Smr.Smr_intf.S) () =
  Fault.reset ();
  let cfg =
    { base with reclaim_threshold = 16; async_reclaim = true;
      handoff_capacity = 4 }
  in
  let t = S.create ~config:cfg () in
  ignore
    (Pool.run ~n:2 (fun _ ->
         let h = S.register t in
         for _ = 1 to 400 do
           S.retire h (Mem.make (S.stats t))
         done;
         S.flush h;
         S.unregister h));
  S.shutdown t;
  let survivor = S.register t in
  S.flush survivor;
  S.flush survivor;
  S.flush survivor;
  Alcotest.(check int)
    (S.name ^ ": zero residue after shutdown")
    0
    (Stats.unreclaimed (S.stats t));
  S.unregister survivor

(* Inline mode must be byte-for-byte unaffected: flag off, no collector. *)
let test_flag_off_no_collector () =
  let t = Hp.create ~config:base () in
  Alcotest.(check bool) "no collector when async_reclaim is off" true
    (Hp.collector_counters t = None);
  let h = Hp.register t in
  for _ = 1 to 100 do
    Hp.retire h (Mem.make (Hp.stats t))
  done;
  Hp.flush h;
  Alcotest.(check int) "inline path drains as before" 0
    (Stats.unreclaimed (Hp.stats t));
  Hp.unregister h;
  Hp.shutdown t

(* --- introspection: collector_stats gauges pinned under a forced stall --- *)

let test_collector_stats_under_stall () =
  Fault.reset ();
  let cfg =
    { base with reclaim_threshold = 8; async_reclaim = true;
      handoff_capacity = 4 }
  in
  let t = Hp.create ~config:cfg () in
  let h = Hp.register t in
  (match Hp.collector_stats t with
  | None -> Alcotest.fail "async HP has no collector stats"
  | Some st ->
      Alcotest.(check int) "capacity as configured" 4
        st.Collector.ring_capacity;
      Alcotest.(check int) "ring empty at rest" 0 st.Collector.ring_occupancy;
      Alcotest.(check int) "no pending garbage at rest" 0 st.Collector.pending;
      Alcotest.(check int) "no drains recorded" 0
        st.Collector.drain_duration.Collector.count);
  Fault.arm ~point:Fault.Collector ~action:Fault.Stall ();
  Fault.await_stalled ();
  for _ = 1 to 200 do
    Hp.retire h (Mem.make (Hp.stats t))
  done;
  (* quiescent now: the retire loop is done, the collector is parked, so
     the gauges are stable and must agree with the counters *)
  (match Hp.collector_stats t with
  | None -> Alcotest.fail "stats gone mid-run"
  | Some st ->
      let c = st.Collector.ctrs in
      Alcotest.(check bool) "handoffs landed" true (c.Collector.handoffs > 0);
      Alcotest.(check int) "stalled collector completed no drains" 0
        c.Collector.drains;
      Alcotest.(check int) "occupancy = handoffs - steals"
        (c.Collector.handoffs - c.Collector.steals)
        st.Collector.ring_occupancy;
      Alcotest.(check int) "nothing pending on a parked collector" 0
        st.Collector.pending;
      Alcotest.(check int) "empty drain-duration histogram" 0
        st.Collector.drain_duration.Collector.count;
      Alcotest.(check int) "empty garbage-age histogram" 0
        st.Collector.garbage_age.Collector.count);
  Fault.release ();
  Hp.flush h;
  Hp.unregister h;
  Hp.shutdown t;
  let survivor = Hp.register t in
  Hp.flush survivor;
  Alcotest.(check int) "drains to zero once released" 0
    (Stats.unreclaimed (Hp.stats t));
  Hp.unregister survivor;
  Fault.reset ()

let test_collector_stats_after_drains () =
  Fault.reset ();
  let cfg =
    { base with reclaim_threshold = 8; async_reclaim = true;
      handoff_capacity = 4 }
  in
  let t = Hp.create ~config:cfg () in
  let h = Hp.register t in
  for _ = 1 to 200 do
    Hp.retire h (Mem.make (Hp.stats t))
  done;
  Hp.flush h;
  (* wait (bounded) for the collector to chew through what was handed off *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec settle () =
    match Hp.collector_stats t with
    | Some st
      when st.Collector.ctrs.Collector.drained_bags
           + st.Collector.ctrs.Collector.steals
           >= st.Collector.ctrs.Collector.handoffs ->
        st
    | _ when Unix.gettimeofday () > deadline ->
        Alcotest.fail "collector never drained its ring"
    | _ ->
        Unix.sleepf 0.01;
        settle ()
  in
  let st = settle () in
  let c = st.Collector.ctrs in
  if c.Collector.drains > 0 then begin
    let hist = st.Collector.drain_duration in
    Alcotest.(check int) "one duration sample per drain cycle"
      c.Collector.drains hist.Collector.count;
    (match List.rev hist.Collector.buckets with
    | (_, last) :: _ ->
        Alcotest.(check int) "buckets cumulative to count" hist.Collector.count
          last
    | [] -> Alcotest.fail "no duration buckets");
    Alcotest.(check bool) "garbage ages observed" true
      (st.Collector.garbage_age.Collector.count > 0)
  end;
  Alcotest.(check bool) "no stats on inline schemes" true
    (Hp.collector_stats (Hp.create ~config:base ()) = None);
  Hp.unregister h;
  Hp.shutdown t

let () =
  let hp_only =
    [
      Alcotest.test_case "stats gauges pinned under forced stall" `Quick
        test_collector_stats_under_stall;
      Alcotest.test_case "drain histograms filled after real cycles" `Quick
        test_collector_stats_after_drains;
      Alcotest.test_case "flag off: no collector, inline unchanged" `Quick
        test_flag_off_no_collector;
    ]
  in
  Alcotest.run "collector"
    ([
       ( "bags",
         [
           Alcotest.test_case "growth past initial capacity" `Quick
             test_bag_growth;
           Alcotest.test_case "transfer appends and empties" `Quick
             test_bag_transfer;
           Alcotest.test_case "salvage compacts in place" `Quick
             test_bag_salvage_in_place;
         ] );
       ( "ring",
         [
           Alcotest.test_case "handoff, drain, clean shutdown" `Quick
             test_ring_basic;
           Alcotest.test_case "full ring rejects; queued bags recovered"
             `Quick test_ring_full_rejects_and_recovers;
         ] );
     ]
    @ List.map
        (fun ((module S : Smr.Smr_intf.S) as s) ->
          ( String.lowercase_ascii S.name,
            pipeline_cases s @ if S.name = "HP" then hp_only else [] ))
        pipeline_schemes
    @ [
        ( "schemes",
          List.map
            (fun name ->
              Alcotest.test_case (name ^ " async smoke") `Quick
                (async_smoke (Schemes.find name)))
            [ "HP++"; "EBR"; "PEBR" ] );
      ])
