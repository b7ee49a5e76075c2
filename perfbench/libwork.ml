(* The library workloads: the calling domain drives one structure over
   one scheme in a closed loop, then a fixed-count stalled phase runs
   while a victim domain is parked by [Fault.Stall] holding its
   protection.

   [Make(S)(D)(I)] splits one round of a scheme in three: [setup] builds
   and prefills a structure, [slice] measures a short stretch of the loop
   on it, and [finish] runs the stalled phase and the checks. *)

module Stats = Smr_core.Stats

let now = Timed.now

type shape = {
  async : bool;
  stall_ops : int; (* churn ops run while the victim is parked *)
}

(* One measured slice: a short stretch of the closed loop. *)
type slice = {
  ops : int;
  elapsed_ns : int;
  cpu_s : float; (* processor time the whole process used during the slice *)
  peak : int; (* peak unreclaimed blocks during the slice *)
  acc : Timed.acc option; (* smr/ds counters over the slice (traced runs) *)
}

(* What the end of a scheme's run found. *)
type final = {
  stalled : int; (* peak unreclaimed blocks over the stalled phase *)
  fences : int; (* heavy fences over all slices *)
  restarts : int; (* protection failures over all slices *)
  collector : (Smr.Collector.stats * Smr.Collector.stats) option;
      (* before the first slice and after the last *)
  failures : string list; (* failed correctness checks *)
}

(* A library workload's inputs, all generated from the seed. *)
type args = {
  shape : shape;
  config : Smr.Smr_intf.config;
  stream : int array; (* the mutator's ops *)
  stall_stream : int array;
  prefill : int array;
  keys : int;
}

(* A scheme's structure after set-up, ready for slices. *)
type inst = { slice : secs:float -> slice; finish : unit -> final }

(* Ops are packed ints: [key lsl 2 lor kind], kind 0 get, 1 insert,
   2 remove. Streams are generated from the seed before the run. *)
let gen_stream rng ~len ~keys ~get_pct ~insert_pct =
  Array.init len (fun _ ->
      let key = Smr_core.Rng.below rng keys in
      let r = Smr_core.Rng.below rng 100 in
      let kind = if r < get_pct then 0 else if r < get_pct + insert_pct then 1 else 2 in
      (key lsl 2) lor kind)

(* A seeded permutation prefix: [count] distinct keys below [keys]. *)
let prefill_keys rng ~keys ~count =
  let a = Array.init keys Fun.id in
  for i = keys - 1 downto 1 do
    let j = Smr_core.Rng.below rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.sub a 0 count

(* Which fault point parks a victim while it holds its scheme's
   protection: a published hazard slot for the HP family, a pinned
   critical section for the epoch schemes (as in [exp stalled]). *)
let stall_point_of name =
  match name with "EBR" | "PEBR" -> Fault.Crit | _ -> Fault.Protect

(* The armed benchmark fault, for the self-test: the command must fail. *)
type fault = No_fault | Kill_mutator | Uaf_off

let fault = ref No_fault

module Make
    (S : Smr.Smr_intf.S)
    (D : Timed.DS with type scheme = S.t and type handle = S.handle)
    (I : sig
      val inspect : S.t -> Timed.acc option
      (** the timing wrappers' counters, when [S] is [Timed.Make] *)
    end) =
struct
  type st = {
    t : S.t;
    d : int D.t;
    h : S.handle;
    lo : D.local;
    stats : Stats.t;
    shape : shape;
    prefilled : int;
    mutable pos : int; (* the mutator's position in its stream *)
    mutable ins : int;
    mutable rm : int;
    col0 : Smr.Collector.stats option;
    fences0 : int;
    restarts0 : int;
    failures : string list ref;
  }

  let fail st fmt = Printf.ksprintf (fun s -> st.failures := s :: !(st.failures)) fmt

  (* Set-up: structure creation and prefill. Returns the state and the
     set-up time in ns. *)
  let setup ~shape ~(config : Smr.Smr_intf.config) ~prefill =
    let t_setup = now () in
    let t = S.create ~config:{ config with async_reclaim = shape.async } () in
    let d = D.create t in
    let h = S.register t in
    let lo = D.make_local h in
    Array.iter (fun k -> ignore (D.insert d lo k k)) prefill;
    let setup_ns = now () - t_setup in
    let stats = S.stats t in
    let st =
      {
        t; d; h; lo; stats; shape;
        prefilled = Array.length prefill;
        pos = 0;
        ins = 0; rm = 0;
        col0 = S.collector_stats t;
        fences0 = Stats.heavy_fences stats;
        restarts0 = Stats.protection_failures stats;
        failures = ref [];
      }
    in
    if !fault = Uaf_off then Smr_core.Mem.set_checking false;
    if not (Smr_core.Mem.checking ()) then fail st "%s: UAF detector disarmed" S.name;
    (st, setup_ns)

  (* One slice: the calling domain registers a fresh handle and runs the
     closed loop for [secs]. It stays the only domain running (the
     collector aside, under async reclamation): with a second domain, the
     minor collections every domain must join wait for whichever is
     descheduled, so on a shared 2-vCPU host throughput no longer moved
     with the single-domain reference loop each slice is paired with (see
     perfbench.ml). The unreclaimed count is sampled every 256 ops; the
     scheme's own peak is folded at every reclaim entry, so when it rose
     during the slice it is the exact slice peak and replaces the
     sample. *)
  let slice st ~stream ~secs =
    let acc0 = I.inspect st.t in
    let before = Stats.peak_unreclaimed st.stats in
    let n = Array.length stream in
    let i = ref st.pos and cnt = ref 0 and ins = ref 0 and rm = ref 0 and best = ref 0 in
    if !fault = Kill_mutator then Fault.arm ~point:Fault.Retire ~action:Fault.Kill ~after:50 ();
    let mh = S.register st.t in
    let mlo = D.make_local mh in
    let cpu0 = Sys.time () in
    let t0 = now () in
    let until = t0 + int_of_float (secs *. 1e9) in
    let t1 = ref t0 in
    (match
       while !t1 < until do
         for _ = 1 to 256 do
           let op = Array.unsafe_get stream !i in
           i := if !i + 1 = n then 0 else !i + 1;
           let key = op lsr 2 in
           match op land 3 with
           | 0 -> ignore (D.get st.d mlo key)
           | 1 -> if D.insert st.d mlo key key then incr ins
           | _ -> if D.remove st.d mlo key then incr rm
         done;
         cnt := !cnt + 256;
         best := max !best (Stats.unreclaimed st.stats);
         t1 := now ()
       done
     with
    | () ->
        D.clear_local mlo;
        S.unregister mh
    | exception Fault.Killed _ ->
        (* the handle is abandoned mid-protocol, never unregistered *)
        fail st "%s: the mutator was killed mid-operation" S.name;
        cnt := 0);
    let cpu_s = Sys.time () -. cpu0 in
    Fault.reset ();
    let after = Stats.peak_unreclaimed st.stats in
    let peak = if after > before then max !best after else !best in
    st.ins <- st.ins + !ins;
    st.rm <- st.rm + !rm;
    st.pos <- !i;
    let acc = match (acc0, I.inspect st.t) with Some a, Some b -> Some (Timed.diff_acc b a) | _ -> None in
    { ops = !cnt; elapsed_ns = max 1 (!t1 - t0); cpu_s; peak; acc }

  (* The stalled phase: a victim parks holding protection while this
     domain churns [stall_ops] ops from [stall_stream]. Returns the phase's
     peak unreclaimed blocks. *)
  let stall st ~stall_stream ~keys =
    let stats = st.stats and d = st.d and lo = st.lo in
    let before = Stats.peak_unreclaimed stats in
    Fault.reset ();
    Fault.arm ~point:(stall_point_of S.name) ~action:Fault.Stall ~after:1 ();
    let vstop = Atomic.make false and vdom = Atomic.make (-1) in
    let victim =
      Domain.spawn (fun () ->
          let vh = S.register st.t in
          let vlo = D.make_local vh in
          Atomic.set vdom (Domain.self () :> int);
          let k = ref 0 in
          while not (Atomic.get vstop) do
            ignore (D.get d vlo (!k mod keys));
            incr k
          done;
          D.clear_local vlo;
          S.unregister vh)
    in
    let deadline = now () + 10_000_000_000 in
    while (not (Fault.stalled ())) && now () < deadline do
      Unix.sleepf 0.0002
    done;
    let stalled = ref 0 in
    if not (Fault.stalled ()) then fail st "%s: the stall victim never parked" S.name
    else if Fault.victim_dom () <> Some (Atomic.get vdom) then
      fail st "%s: the stall fired outside the victim" S.name
    else begin
      let n = Array.length stall_stream in
      for i = 0 to st.shape.stall_ops - 1 do
        let op = stall_stream.(i mod n) in
        let key = op lsr 2 in
        (match op land 3 with
        | 0 -> ignore (D.get d lo key)
        | 1 -> if D.insert d lo key key then st.ins <- st.ins + 1
        | _ -> if D.remove d lo key then st.rm <- st.rm + 1);
        if i land 63 = 63 then stalled := max !stalled (Stats.unreclaimed stats)
      done;
      stalled := max !stalled (Stats.unreclaimed stats);
      (* the peak is folded at every reclaim entry: when it rose during the
         stall it is the phase's exact peak *)
      let p = Stats.peak_unreclaimed stats in
      if p > before then stalled := max !stalled p
    end;
    Fault.release ();
    Atomic.set vstop true;
    Domain.join victim;
    Fault.reset ();
    !stalled

  (* After the last slice: the stalled phase, then the checks. *)
  let finish st ~stall_stream ~keys =
    let stats = st.stats and d = st.d and lo = st.lo in
    let col1 = S.collector_stats st.t in
    let fences = Stats.heavy_fences stats - st.fences0 in
    let restarts = Stats.protection_failures stats - st.restarts0 in
    let stalled = stall st ~stall_stream ~keys in
    (* checks *)
    let expected = st.prefilled + st.ins - st.rm in
    let size = D.size d in
    if size <> expected then
      fail st "%s: final size %d, expected prefill %d + inserts %d - removes %d = %d" S.name size
        st.prefilled st.ins st.rm expected;
    (try D.assert_reachable_not_freed d
     with e -> fail st "%s: reachable node freed (%s)" S.name (Printexc.to_string e));
    D.clear_local lo;
    S.unregister st.h;
    S.shutdown st.t;
    let rh = S.register st.t in
    S.flush rh;
    S.flush rh;
    S.unregister rh;
    let residue = Stats.unreclaimed stats in
    if residue <> 0 then
      fail st "%s: %d blocks unreclaimed after unregister and flush" S.name residue;
    {
      stalled;
      fences;
      restarts;
      collector = (match (st.col0, col1) with Some a, Some b -> Some (a, b) | _ -> None);
      failures = List.rev !(st.failures);
    }

  (* One set-up: its time in ns and the instance. *)
  let start (a : args) =
    let st, ns = setup ~shape:a.shape ~config:a.config ~prefill:a.prefill in
    ( ns,
      {
        slice = (fun ~secs -> slice st ~stream:a.stream ~secs);
        finish = (fun () -> finish st ~stall_stream:a.stall_stream ~keys:a.keys);
      } )
end
