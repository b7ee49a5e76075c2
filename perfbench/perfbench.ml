(* The benchmark program: one workload, one seed, one JSON result line.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--fault kill|uaf-off]

   --trace 0 measures the end-to-end metrics with the plain schemes.
   --trace 1 measures every scheme twice per round, plain and under the
   timing wrappers of [Timed], and reports the per-layer metrics plus the
   tracing overhead. [--fault] arms a seeded defect so
   the self-test can show that the correctness checks fail the run. See
   perfbench/README.md. *)

module Histogram = Service.Histogram

(* --- structure adapters -------------------------------------------------- *)

module type DS_OF = functor (X : Smr.Smr_intf.S) ->
  Timed.DS with type scheme = X.t and type handle = X.handle

module Hm (X : Smr.Smr_intf.S) = struct
  include Smr_ds.Hmlist.Make (X)

  type scheme = X.t
  type handle = X.handle
end

module Hhs (X : Smr.Smr_intf.S) = struct
  include Smr_ds.Hhslist.Make (X)

  type scheme = X.t
  type handle = X.handle
end

module Map (X : Smr.Smr_intf.S) = struct
  include Smr_ds.Hashmap.Make (X)

  type scheme = X.t
  type handle = X.handle
end

module Lib_runner (S : Smr.Smr_intf.S) (L : DS_OF) = struct
  module T = Timed.Make (S)

  module P =
    Libwork.Make (S) (L (S))
      (struct
        let inspect _ = None
      end)

  module PT =
    Libwork.Make (T) (Timed.Ds (T) (L (T)))
      (struct
        let inspect t = Some (T.totals t)
      end)

  let start ~traced = if traced then PT.start else P.start
end

module Kv_runner (S : Smr.Smr_intf.S) = struct
  module T = Timed.Make (S)

  module P =
    Kvwork.Make (S)
      (struct
        let inspect _ = None
      end)

  module PT =
    Kvwork.Make (T)
      (struct
        let inspect t = Some (T.totals t)
      end)

  let start ~traced = if traced then PT.start else P.start
end

(* [list]/[map]/[kv ~traced args] set the scheme up and return the set-up
   time in ns and the instance. *)
type scheme = {
  key : string; (* metric-name prefix *)
  list : traced:bool -> Libwork.args -> int * Libwork.inst;
  map : traced:bool -> Libwork.args -> int * Libwork.inst;
  kv : traced:bool -> Kvwork.args -> int * Kvwork.inst;
}

(* HHSList refuses HP (paper Table 2), so HP runs the list workload on
   HMList. *)
let schemes =
  let module Hp_list = Lib_runner (Hp) (Hm) in
  let module Hp_map = Lib_runner (Hp) (Map) in
  let module Hp_kv = Kv_runner (Hp) in
  let module Hpp_list = Lib_runner (Hp_plus) (Hhs) in
  let module Hpp_map = Lib_runner (Hp_plus) (Map) in
  let module Hpp_kv = Kv_runner (Hp_plus) in
  let module Ebr_list = Lib_runner (Ebr) (Hhs) in
  let module Ebr_map = Lib_runner (Ebr) (Map) in
  let module Ebr_kv = Kv_runner (Ebr) in
  let module Pebr_list = Lib_runner (Pebr) (Hhs) in
  let module Pebr_map = Lib_runner (Pebr) (Map) in
  let module Pebr_kv = Kv_runner (Pebr) in
  [
    { key = "hp"; list = Hp_list.start; map = Hp_map.start; kv = Hp_kv.start };
    { key = "hp_plus"; list = Hpp_list.start; map = Hpp_map.start; kv = Hpp_kv.start };
    { key = "ebr"; list = Ebr_list.start; map = Ebr_map.start; kv = Ebr_kv.start };
    { key = "pebr"; list = Pebr_list.start; map = Pebr_map.start; kv = Pebr_kv.start };
  ]

(* --- workloads ----------------------------------------------------------- *)

type lib_workload = {
  lw_keys : int;
  lw_prefill : int;
  get_pct : int;
  insert_pct : int;
  lw_shape : Libwork.shape;
  use_map : bool;
  collector_layer : bool;
      (* the traced run adds an async-reclaim instance per scheme, so the
         collector layer is measured on this workload's op stream *)
}

let list_read =
  {
    lw_keys = 1024;
    lw_prefill = 512;
    get_pct = 90;
    insert_pct = 5;
    lw_shape = { async = false; stall_ops = 4_000 };
    use_map = false;
    collector_layer = false;
  }

let map_churn =
  {
    lw_keys = 2048;
    lw_prefill = 1024;
    get_pct = 0;
    insert_pct = 50;
    lw_shape = { async = false; stall_ops = 100_000 };
    use_map = true;
    collector_layer = true;
  }

(* map-churn with async reclamation, plus 10% gets so the structure's read
   path is measured too *)
let map_churn_async =
  {
    map_churn with
    get_pct = 10;
    insert_pct = 45;
    lw_shape = { async = true; stall_ops = 100_000 };
    collector_layer = false;
  }

(* kv-open: offered rate, key space, read share, stalled-phase length. The
   rate sits below the capacity knee of a 2-core host. *)
let kv_rate = 10_000.0
let kv_keys = 16384
let kv_read_pct = 80
let kv_stall_secs = 0.1
let kv_stall_rate = 20_000.0

(* A run is [rounds] rounds. In each, every scheme (and variant) in turn
   is set up, measured in [per_round] short slices, and finished (stalled
   phase, checks, teardown). Only one instance is alive at a time: an idle
   collector or server left running would add domains that every
   stop-the-world collection has to wake. Rounds rotate over the schemes,
   so every scheme samples the whole run's host phases. The library
   workloads take more, shorter slices, each paired with a reference
   window, so more pairs sample the host's phases. *)
type plan = { rounds : int; per_round : int }

let kv_plan = { rounds = 5; per_round = 4 }
let lib_plan = { rounds = 10; per_round = 8 }

(* --- statistics ---------------------------------------------------------- *)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let pct_us h p = if Histogram.count h = 0 then 0.0 else float_of_int (Histogram.percentile h p) /. 1e3

(* --- metrics ------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Per-layer numbers of a scheme's traced slices, from their counters.
   [ops] is their completed operations; [collector] holds the collector
   stats before and after the slices that ran [collector_ops] ops with
   async reclamation. *)
let layer_of ~key ~ops ~fences ~restarts ~(acc : Timed.acc) ~collector ~collector_ops =
  let a i = acc.(i) in
  let ds_ops = a Timed.get_n + a Timed.upd_n in
  let ds_ns = a Timed.get_ns + a Timed.upd_ns in
  (* collector counter deltas, summed over rounds *)
  let sum f =
    List.fold_left
      (fun acc ((c0 : Smr.Collector.stats), (c1 : Smr.Collector.stats)) -> acc +. f c1 -. f c0)
      0.0 collector
  in
  let ctr f = sum (fun (c : Smr.Collector.stats) -> float_of_int (f c.ctrs)) in
  let handoffs = ctr (fun c -> c.Smr.Collector.handoffs) in
  let fallbacks = ctr (fun c -> c.Smr.Collector.fallbacks) in
  let drains = ctr (fun c -> c.Smr.Collector.drains) in
  let per_kop x = if collector_ops = 0 then 0.0 else 1000.0 *. x /. float_of_int collector_ops in
  let fratio x y = if y = 0.0 then 0.0 else x /. y in
  let col =
    [
      per_kop handoffs;
      fratio fallbacks (handoffs +. fallbacks);
      1e6
      *. fratio
           (sum (fun c -> c.drain_duration.sum))
           (sum (fun c -> float_of_int c.drain_duration.count));
      fratio (ctr (fun c -> c.Smr.Collector.drained_bags)) drains;
      per_kop (ctr (fun c -> c.Smr.Collector.steals));
    ]
  in
  let p = key ^ "." in
  [
    m (p ^ "ds.get_ns") "ns" (ratio (a Timed.get_ns) (a Timed.get_n));
    m (p ^ "ds.update_ns") "ns" (ratio (a Timed.upd_ns) (a Timed.upd_n));
    m (p ^ "ds.self_share") "share" (ratio (ds_ns - a Timed.ds_smr_ns) ds_ns);
    m (p ^ "ds.words_per_op") "words/op" (ratio (a Timed.ds_words) ds_ops);
    m (p ^ "smr.protect_per_op") "count/op" (ratio (a Timed.protect_n) ops);
    m (p ^ "smr.protect_ns") "ns" (ratio (a Timed.protect_ns) (a Timed.protect_n));
    m (p ^ "smr.crit_ns") "ns" (ratio (a Timed.crit_ns) (a Timed.crit_n));
    m (p ^ "smr.restarts_per_kop") "1/kop" (1000.0 *. ratio restarts ops);
    m (p ^ "smr.retire_ns") "ns" (ratio (a Timed.retire_ns) (a Timed.retire_n));
    m (p ^ "smr.unlink_ns") "ns" (ratio (a Timed.unlink_ns) (a Timed.unlink_n));
    m (p ^ "smr.reclaim_per_kop") "1/kop" (1000.0 *. ratio (a Timed.reclaim_n) ops);
    m (p ^ "smr.reclaim_us") "us" (ratio (a Timed.reclaim_ns) (a Timed.reclaim_n) /. 1e3);
    m (p ^ "smr.freed_per_pass") "blocks" (ratio (a Timed.reclaim_freed) (a Timed.reclaim_n));
    m (p ^ "smr.fences_per_kop") "1/kop" (1000.0 *. ratio fences ops);
    m (p ^ "smr.words_per_op") "words/op" (ratio (a Timed.smr_words) ops);
  ]
  @ List.map2
      (fun (n, u) v -> m (p ^ n) u v)
      [
        ("collector.handoffs_per_kop", "1/kop");
        ("collector.fallback_share", "share");
        ("collector.drain_us", "us");
        ("collector.bags_per_drain", "bags");
        ("collector.steals_per_kop", "1/kop");
      ]
      col

(* --- running a workload -------------------------------------------------- *)

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  failures : string list;
  detail : (string * string) list; (* extra JSON fields, already encoded *)
}

(* The instances of a scheme in one round: the plain one; in a traced run
   also one under the timing wrappers; and, on a workload that measures
   the collector layer, a traced one with async reclamation. *)
type variant = Plain | Traced | Traced_async

(* Step [k] visits the schemes starting at scheme [k mod 4]; a traced run
   also alternates which of the plain/traced pair goes first. *)
let rotation k l =
  let n = List.length l in
  List.init n (fun i -> List.nth l ((i + k) mod n))

let variants ~traced ~async k =
  if not traced then [ Plain ]
  else (if k mod 2 = 0 then [ Plain; Traced ] else [ Traced; Plain ]) @ if async then [ Traced_async ] else []

type ('s, 'f) runs = {
  setups : float list; (* per round: seconds of the plain set-ups of all schemes *)
  sl : string -> variant -> 's list; (* slices per (scheme key, variant) *)
  fin : string -> variant -> 'f list; (* finish results per (scheme key, variant) *)
}

(* Run the rounds. [start s v r] sets scheme [s] up as variant [v] for
   round [r]; [slice inst k] runs global slice [k]; [finish inst] ends the
   round. *)
let run_rounds ~plan ~variants ~start ~slice ~finish =
  let sl = Hashtbl.create 8 and fin = Hashtbl.create 8 in
  let push tbl key x = Hashtbl.replace tbl key (x :: Option.value ~default:[] (Hashtbl.find_opt tbl key)) in
  let setups =
    List.init plan.rounds (fun r ->
        let total = ref 0 in
        List.iter
          (fun s ->
            List.iter
              (fun v ->
                let ns, inst = start s v r in
                if v = Plain then total := !total + ns;
                for k = 0 to plan.per_round - 1 do
                  push sl (s.key, v) (slice inst ((r * plan.per_round) + k))
                done;
                push fin (s.key, v) (finish inst))
              (variants r))
          (rotation r schemes);
        float_of_int !total /. 1e9)
  in
  let get tbl key v = List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl (key, v))) in
  { setups; sl = get sl; fin = get fin }

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Per-slice values of one metric, for the stamp line's detail. *)
let values_json f l = "[" ^ String.concat ", " (List.map (fun r -> Printf.sprintf "%.6g" (f r)) l) ^ "]"

let sum_acc f l = Timed.sum_accs (List.filter_map f l)

(* --- host-speed reference ----------------------------------------------- *)

(* The speed of a shared host drifts with its other tenants' load: on a
   2-vCPU guest the same closed loop ran a quarter slower in one run than
   in the next, processor time included, and every scheme moved with it.
   So each library slice is paired with the reference loop run just
   before it, in the same domain: stdlib [Hashtbl] churn over a fixed op
   table, none of this repository's code. [<s>.mops] is the slice's
   throughput scaled by [ref_nominal] over the reference's throughput,
   both per second of processor time: Mops/s on a host where the
   reference runs at [ref_nominal] Mops/s. Each set-up, kv-open's too, is
   paired the same way, so [setup_s] reads as seconds on that host. A
   full major collection runs before each set-up, outside the timing, so
   no set-up pays for the garbage of the instance before it. *)
let ref_secs = 0.02
let ref_nominal = 16.0 (* reference Mops/s, about what a 2-vCPU host gives *)

(* 10% find, 45% replace, 45% remove over 2048 keys, half prefilled *)
let ref_ops =
  let r = Smr_core.Rng.create ~seed:0 in
  Array.init 4096 (fun _ ->
      let x = Smr_core.Rng.below r 100 in
      (Smr_core.Rng.below r 2048 lsl 2) lor if x < 10 then 0 else if x < 55 then 1 else 2)

(* The reference's Mops/s per second of processor time over [ref_secs]. *)
let reference () =
  let h = Hashtbl.create 512 in
  for k = 0 to 1023 do
    Hashtbl.replace h (2 * k) k
  done;
  let n = ref 0 and i = ref 0 in
  let cpu0 = Sys.time () in
  let until = Timed.now () + int_of_float (ref_secs *. 1e9) in
  while Timed.now () < until do
    for _ = 1 to 256 do
      let op = Array.unsafe_get ref_ops !i in
      i := (!i + 1) land 4095;
      let k = op lsr 2 in
      match op land 3 with
      | 0 -> ignore (Hashtbl.find_opt h k)
      | 1 -> Hashtbl.replace h k k
      | _ -> Hashtbl.remove h k
    done;
    n := !n + 256
  done;
  float_of_int !n /. (Sys.time () -. cpu0) /. 1e6

let run_lib w ~seed ~seconds ~traced =
  let rng = Smr_core.Rng.create ~seed in
  let stream () =
    Libwork.gen_stream rng ~len:(1 lsl 16) ~keys:w.lw_keys ~get_pct:w.get_pct
      ~insert_pct:w.insert_pct
  in
  let mutator_stream = stream () in
  let stall_stream = stream () in
  let prefill = Libwork.prefill_keys rng ~keys:w.lw_keys ~count:w.lw_prefill in
  let args =
    {
      Libwork.shape = w.lw_shape;
      config = Smr.Smr_intf.default_config;
      stream = mutator_stream;
      stall_stream;
      prefill;
      keys = w.lw_keys;
    }
  in
  let variants = variants ~traced ~async:w.collector_layer in
  let slices = lib_plan.rounds * lib_plan.per_round in
  let instances = slices * List.length schemes * List.length (variants 0) in
  (* the reference windows come out of the run's time *)
  let secs = Float.max 0.005 ((seconds /. float_of_int instances) -. ref_secs) in
  let runs =
    run_rounds ~plan:lib_plan ~variants
      ~start:(fun s v _ ->
        let a = if v = Traced_async then { args with shape = { args.shape with async = true } } else args in
        (* set-up time is scaled to the reference host too *)
        Gc.full_major ();
        let r = reference () in
        let ns, inst = (if w.use_map then s.map else s.list) ~traced:(v <> Plain) a in
        (int_of_float (float_of_int ns *. r /. ref_nominal), inst))
      ~slice:(fun (i : Libwork.inst) _ ->
        let r = reference () in
        (r, i.slice ~secs))
      ~finish:(fun (i : Libwork.inst) -> i.finish ())
  in
  let cpu_mops (x : Libwork.slice) = float_of_int x.ops /. x.cpu_s /. 1e6 in
  let mops ((r, x) : float * Libwork.slice) = cpu_mops x *. ref_nominal /. r in
  let wall_mops ((_, x) : float * Libwork.slice) = float_of_int x.ops /. float_of_int x.elapsed_ns *. 1e3 in
  let med key v f = median (List.map f (runs.sl key v)) in
  let fin key v f = List.map f (runs.fin key v) in
  let slices_of key v = List.map snd (runs.sl key v) in
  let ops_of l = List.fold_left (fun a (x : Libwork.slice) -> a + x.ops) 0 l in
  let metrics =
    if not traced then
      m "setup_s" "s" (median runs.setups)
      :: List.concat_map
           (fun s ->
             [
               m (s.key ^ ".mops") "Mops/s" (med s.key Plain mops);
               m (s.key ^ ".peak_garbage") "blocks" (med s.key Plain (fun (_, x) -> float_of_int x.peak));
               m (s.key ^ ".stalled_garbage") "blocks"
                 (mean (fin s.key Plain (fun (f : Libwork.final) -> float_of_int f.stalled)));
             ])
           schemes

    else
      List.concat_map
        (fun s ->
          let traced_slices = slices_of s.key Traced in
          let total f = List.fold_left ( + ) 0 (fin s.key Traced f) in
          (* the collector layer: the async instances when the workload
             adds them, else the traced ones (async on map-churn-async) *)
          let cv = if w.collector_layer then Traced_async else Traced in
          layer_of ~key:s.key ~ops:(ops_of traced_slices)
            ~fences:(total (fun f -> f.fences))
            ~restarts:(total (fun f -> f.restarts))
            ~acc:(sum_acc (fun (x : Libwork.slice) -> x.acc) traced_slices)
            ~collector:(List.concat (fin s.key cv (fun f -> Option.to_list f.collector)))
            ~collector_ops:(ops_of (slices_of s.key cv))
          @ [ m (s.key ^ ".trace_overhead") "share" (1.0 -. (med s.key Traced mops /. med s.key Plain mops)) ])
        schemes
  in
  let all f = List.concat_map (fun s -> List.concat_map (fun v -> f s.key v) (variants 0)) schemes in
  let finals = all runs.fin in
  let per_scheme f = "{" ^ String.concat ", " (List.map (fun s -> Printf.sprintf "%s: %.17g" (json_string s.key) (f s.key)) schemes) ^ "}" in
  {
    metrics;
    attempted = ops_of (List.map snd (all runs.sl)) + (List.length finals * w.lw_shape.stall_ops);
    failed = 0;
    failures = List.concat_map (fun (f : Libwork.final) -> f.failures) finals;
    detail =
      [
        ("slices", string_of_int slices);
        ("slice_s", Printf.sprintf "%.17g" secs);
        ("reference_mops", Printf.sprintf "%.17g" (median (List.map fst (all runs.sl))));
        ("cpu_mops", per_scheme (fun k -> med k Plain (fun (_, x) -> cpu_mops x)));
        ("wall_mops", per_scheme (fun k -> med k Plain wall_mops));
      ];
  }

let run_kv ~seed ~seconds ~traced =
  let rng = Smr_core.Rng.create ~seed in
  let prefill = Libwork.prefill_keys rng ~keys:kv_keys ~count:(kv_keys / 2) in
  let slices = kv_plan.rounds * kv_plan.per_round in
  let secs = seconds /. float_of_int (slices * 4 * if traced then 2 else 1) in
  (* one schedule per slice index, shared by every scheme *)
  let scheds =
    Array.init slices (fun _ ->
        Kvwork.schedule rng ~rate:kv_rate ~secs ~keys:kv_keys ~read_pct:kv_read_pct)
  in
  (* one stalled phase per round; it churns (puts and deletes only), as
     map-churn does *)
  let stall_scheds =
    Array.init kv_plan.rounds (fun _ ->
        Kvwork.schedule rng ~rate:kv_stall_rate ~secs:kv_stall_secs ~keys:kv_keys ~read_pct:0)
  in
  (* wire events are recorded for the service's default scheme *)
  let trace_net = ref false in
  let variants = variants ~traced ~async:false in
  let runs =
    run_rounds ~plan:kv_plan ~variants
      ~start:(fun s v r ->
        let traced = v <> Plain in
        trace_net := traced && s.key = "hp_plus";
        (* the prefill is processor-bound, so set-up time is scaled to the
           reference host as on the library workloads *)
        Gc.full_major ();
        let rf = reference () in
        let ns, inst = s.kv ~traced { Kvwork.prefill; stall_sched = stall_scheds.(r); keys = kv_keys } in
        (int_of_float (float_of_int ns *. rf /. ref_nominal), inst))
      ~slice:(fun (i : Kvwork.inst) k -> i.slice ~trace_net:!trace_net scheds.(k))
      ~finish:(fun (i : Kvwork.inst) -> i.finish ())
  in
  let med key v f = median (List.map f (runs.sl key v)) in
  let fin key v f = List.map f (runs.fin key v) in
  let mops (x : Kvwork.slice) = float_of_int x.phase.completed /. float_of_int x.phase.elapsed_ns *. 1e3 in
  let p50 (x : Kvwork.slice) = pct_us x.phase.lat 50.0 in
  let metrics =
    if not traced then
      m "setup_s" "s" (median runs.setups)
      :: List.concat_map
           (fun s ->
             [
               m (s.key ^ ".mops") "Mops/s" (med s.key Plain mops);
               m (s.key ^ ".peak_garbage") "blocks" (med s.key Plain (fun x -> float_of_int x.peak));
               m (s.key ^ ".stalled_garbage") "blocks"
                 (mean (fin s.key Plain (fun (f : Kvwork.final) -> float_of_int f.stalled)));
             ])
           schemes

    else
      let per_scheme =
        List.concat_map
          (fun s ->
            let traced_slices = runs.sl s.key Traced in
            let total f = List.fold_left ( + ) 0 (fin s.key Traced f) in
            layer_of ~key:s.key
              ~ops:(List.fold_left (fun a (x : Kvwork.slice) -> a + x.phase.completed) 0 traced_slices)
              ~fences:(total (fun f -> f.fences))
              ~restarts:(total (fun f -> f.restarts))
              ~acc:(sum_acc (fun (x : Kvwork.slice) -> x.acc) traced_slices)
              ~collector:[] ~collector_ops:0
            @ [ m (s.key ^ ".trace_overhead") "share" ((med s.key Traced p50 /. med s.key Plain p50) -. 1.0) ])
          schemes
      in
      let hpp = runs.sl "hp_plus" Traced in
      let net f = median (List.filter_map (fun (x : Kvwork.slice) -> Option.map f x.net) hpp) in
      let smr_ns = (sum_acc (fun (x : Kvwork.slice) -> x.acc) hpp).(Timed.smr_ns) in
      let serve_ns = List.fold_left (fun a (x : Kvwork.slice) -> a + x.serve_ns) 0 hpp in
      per_scheme
      @ [
          m "kv.p50_us" "us" (med "hp_plus" Plain p50);
          m "kv.p99_us" "us" (med "hp_plus" Plain (fun x -> pct_us x.phase.lat 99.0));
          m "net.rpc_us" "us" (net (fun n -> n.Kvwork.rpc_us));
          m "net.queue_us" "us" (net (fun n -> n.Kvwork.queue_us));
          m "net.queue_p99_us" "us" (net (fun n -> n.Kvwork.queue_p99_us));
          m "net.serve_us" "us" (net (fun n -> n.Kvwork.serve_us));
          m "net.write_us" "us" (net (fun n -> n.Kvwork.write_us));
          m "net.queue_depth" "requests" (net (fun n -> n.Kvwork.queue_depth));
          m "net.retry_share" "share" (net (fun n -> n.Kvwork.retry_share));
          m "net.codec_ns" "ns"
            (median (List.map (fun (x : Kvwork.slice) -> Kvwork.codec_ns x.phase.requests) hpp));
          m "service.smr_share" "share" (ratio smr_ns serve_ns);
          m "gen.late_p99_us" "us" (median (List.map (fun (x : Kvwork.slice) -> pct_us x.phase.late 99.0) hpp));
        ]
  in
  let all f = List.concat_map (fun s -> List.concat_map (fun v -> f s.key v) (variants 0)) schemes in
  let sum f = List.fold_left (fun a (x : Kvwork.slice) -> a + f x.phase) 0 (all runs.sl) in
  let hpp = runs.sl "hp_plus" Plain in
  {
    metrics;
    attempted = sum (fun p -> p.scheduled);
    failed = sum (fun p -> p.errors + p.abandoned);
    failures = List.concat_map (fun (f : Kvwork.final) -> f.failures) (all runs.fin);
    detail =
      [
        ("slices", string_of_int slices);
        ("slice_s", Printf.sprintf "%.17g" secs);
        ("offered_rps", Printf.sprintf "%.17g" kv_rate);
        ("retries", string_of_int (sum (fun p -> p.retries)));
        ( "hp_plus_latency_samples",
          string_of_int (List.fold_left (fun a (x : Kvwork.slice) -> a + Histogram.count x.phase.lat) 0 hpp) );
        ("hp_plus_p90_us_slices", values_json (fun x -> pct_us x.Kvwork.phase.lat 90.0) hpp);
        ("hp_plus_p99_us_slices", values_json (fun x -> pct_us x.Kvwork.phase.lat 99.0) hpp);
      ];
  }

(* --- entry point ---------------------------------------------------------- *)

(* Library workloads leave the net, service and gen layers idle: their
   per-layer names are printed as 0 there, as the structure layer is on
   kv-open, so every traced run lists the same names. *)
let idle_net_layers =
  [
    m "kv.p50_us" "us" 0.0;
    m "kv.p99_us" "us" 0.0;
    m "net.rpc_us" "us" 0.0;
    m "net.queue_us" "us" 0.0;
    m "net.queue_p99_us" "us" 0.0;
    m "net.serve_us" "us" 0.0;
    m "net.write_us" "us" 0.0;
    m "net.queue_depth" "requests" 0.0;
    m "net.retry_share" "share" 0.0;
    m "net.codec_ns" "ns" 0.0;
    m "service.smr_share" "share" 0.0;
    m "gen.late_p99_us" "us" 0.0;
  ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload list-read|map-churn|map-churn-async|kv-open --seed N \
     --seconds S --trace 0|1 [--fault kill|uaf-off]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := (match int_of_string_opt v with Some n when n >= 0 -> n | _ -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := (match float_of_string_opt v with Some f when f > 0.0 -> f | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> 0 | "1" -> 1 | _ -> usage ());
        parse rest
    | "--fault" :: v :: rest ->
        (Libwork.fault :=
           match v with "kill" -> Libwork.Kill_mutator | "uaf-off" -> Libwork.Uaf_off | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds <= 0.0 || !trace < 0 then usage ();
  Obs.Trace.set_clock Timed.now;
  Net.Addr.ignore_sigpipe ();
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  let o =
    match !workload with
    | "list-read" -> run_lib list_read ~seed ~seconds ~traced
    | "map-churn" -> run_lib map_churn ~seed ~seconds ~traced
    | "map-churn-async" -> run_lib map_churn_async ~seed ~seconds ~traced
    | "kv-open" -> run_kv ~seed ~seconds ~traced
    | _ -> usage ()
  in
  let metrics =
    if traced && !workload <> "kv-open" then o.metrics @ idle_net_layers else o.metrics
  in
  List.iter (fun f -> prerr_endline ("check failed: " ^ f)) o.failures;
  let metric x =
    Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string x.name) x.value
      (json_string x.unit_)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \"detail\": {%s}, \
     \"failures\": [%s]}\n"
    (o.failures = []) o.attempted o.failed
    (String.concat ", " (List.map metric metrics))
    (String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) o.detail))
    (String.concat ", " (List.map json_string o.failures));
  exit (if o.failures = [] then 0 else 1)
