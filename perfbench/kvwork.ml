(* The kv-open workload: the benchmark's own open-loop generator against
   an in-process netkv server over a unix socket.

   Arrivals are a seeded Poisson process at a fixed offered rate, drawn
   before the phase starts. Each request is charged from its scheduled
   arrival (corrected latency), so a server stall shows up as latency of
   every request it delayed. A [Retry] reply (the server's backpressure)
   is resent after [retry_backoff_ns] and keeps its scheduled time; it
   counts as a retry, not a failure. Resending at once would turn a short
   server stall into a retry storm. How late the generator sent each
   request is recorded too. *)

module Histogram = Service.Histogram
module Rng = Smr_core.Rng
module Stats = Smr_core.Stats
module Frame = Net.Frame
module Session = Net.Session

let now = Timed.now
let retry_backoff_ns = 1_000_000

type phase = {
  scheduled : int;
  completed : int;
  retries : int;
  errors : int;
  abandoned : int;
  inserted : int; (* Put replies Done true *)
  removed : int; (* Delete replies Done true *)
  lat : Histogram.t; (* completion - scheduled arrival, ns *)
  late : Histogram.t; (* send - scheduled arrival, ns *)
  elapsed_ns : int;
  requests : Frame.request array; (* the phase's requests, for codec replay *)
}

(* The phase's schedule: arrival offsets (ns from phase start) and
   requests, all drawn from [rng]. *)
let schedule rng ~rate ~secs ~keys ~read_pct =
  let mean_ns = 1e9 /. rate in
  let limit = int_of_float (secs *. 1e9) in
  let offs = ref [] and reqs = ref [] in
  let t = ref 0 in
  let continue = ref true in
  while !continue do
    let u = 1.0 -. Rng.float rng in
    t := !t + int_of_float (-.mean_ns *. log (max u 1e-12));
    if !t >= limit then continue := false
    else begin
      let key = Rng.below rng keys in
      let r = Rng.below rng 100 in
      let req =
        if r < read_pct then Frame.Get key
        else if r < read_pct + ((100 - read_pct) / 2) then Frame.Put (key, key)
        else Frame.Delete key
      in
      offs := !t :: !offs;
      reqs := req :: !reqs
    end
  done;
  (Array.of_list (List.rev !offs), Array.of_list (List.rev !reqs))

(* Run one open-loop phase on [sess]; frame ids are schedule indices.
   [tick] runs once per loop turn (the stalled phase samples garbage
   there). Responses still missing [drain] seconds after the last arrival
   are abandoned. *)
let run_phase sess (offs, reqs) ~tick ~drain =
  let n = Array.length offs in
  let lat = Histogram.create ~sub_bits:9 () and late = Histogram.create ~sub_bits:9 () in
  let completed = ref 0 and retries = ref 0 and errors = ref 0 in
  let inserted = ref 0 and removed = ref 0 in
  let outstanding = ref 0 and next = ref 0 in
  let resend = Queue.create () in (* (due ns, id), due times ascending *)
  let tracing = Obs.Trace.enabled () in
  if tracing then
    Session.set_on_wire sess (fun id -> Obs.Trace.emit Obs.Trace.Req_send id 0 0)
  else Session.set_on_wire sess ignore;
  let send id =
    Session.send sess { Frame.id; payload = Frame.Request reqs.(id) };
    if tracing then Session.note_wire sess id
  in
  let t0 = now () + 200_000 in
  let deadline = ref max_int in
  let closed = ref false in
  while (!next < n || !outstanding > 0) && now () < !deadline && not !closed do
    let tn = now () in
    while !next < n && t0 + offs.(!next) <= tn do
      send !next;
      Histogram.record late (tn - (t0 + offs.(!next)));
      incr next;
      incr outstanding
    done;
    while (not (Queue.is_empty resend)) && fst (Queue.peek resend) <= tn do
      send (snd (Queue.pop resend))
    done;
    if !next = n && !deadline = max_int then
      deadline := tn + int_of_float (drain *. 1e9);
    (match Session.flush sess with `Closed -> closed := true | `Done | `Blocked -> ());
    (match Session.fill sess with
    | Session.Eof -> closed := true
    | Session.Blocked -> ()
    | Session.Data ->
        let rec frames () =
          match Session.next_frame sess with
          | `Need_more -> ()
          | `Corrupt _ -> closed := true
          | `Frame f ->
              let id = f.Frame.id in
              (match f.Frame.payload with
              | Frame.Response Frame.Retry ->
                  incr retries;
                  Queue.push (now () + retry_backoff_ns, id) resend
              | Frame.Response r ->
                  decr outstanding;
                  incr completed;
                  let tc = now () in
                  Histogram.record lat (tc - (t0 + offs.(id)));
                  if tracing then
                    Obs.Trace.emit Obs.Trace.Req_done id (Frame.opcode f.Frame.payload) 0;
                  (match (r, reqs.(id)) with
                  | Frame.Done true, Frame.Put _ -> incr inserted
                  | Frame.Done true, Frame.Delete _ -> incr removed
                  | Frame.Error _, _ -> incr errors
                  | _ -> ())
              | Frame.Request _ -> closed := true);
              frames ()
        in
        frames ());
    tick ();
    let tn = now () in
    let until = if !next < n then t0 + offs.(!next) - tn else 1_000_000 in
    let until =
      if Queue.is_empty resend then until else min until (fst (Queue.peek resend) - tn)
    in
    let timeout = Float.min (float_of_int (max 0 until) /. 1e9) 0.001 in
    if timeout > 0.0 then begin
      let ws = if Session.out_backlog sess > 0 then [ sess.Session.fd ] else [] in
      try ignore (Unix.select [ sess.Session.fd ] ws [] timeout)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  {
    scheduled = n;
    completed = !completed;
    retries = !retries;
    errors = !errors;
    abandoned = n - !completed;
    inserted = !inserted;
    removed = !removed;
    lat;
    late;
    elapsed_ns = now () - t0;
    requests = reqs;
  }

(* net.codec_ns: the phase's request frames encoded and decoded again
   through [Net.Codec]; mean ns per frame. *)
let codec_ns reqs =
  let n = Array.length reqs in
  if n = 0 then 0.0
  else begin
    let t0 = now () in
    Array.iteri
      (fun id r ->
        let b = Net.Codec.encode_bytes { Frame.id; payload = Frame.Request r } in
        match Net.Codec.decode b ~off:0 ~avail:(Bytes.length b) with
        | Net.Codec.Frame _ -> ()
        | _ -> failwith "codec replay: frame did not decode")
      reqs;
    float_of_int (now () - t0) /. float_of_int n
  end

(* A freshly enabled tracer allocates each domain's ring at its first
   event. One traced Ping exchange makes the reactor and this domain pay
   that before the measured phase instead of inside it. *)
let warm_rings sess =
  let id = -1 in
  Session.set_on_wire sess (fun id -> Obs.Trace.emit Obs.Trace.Req_send id 0 0);
  Session.send sess { Frame.id; payload = Frame.Request Frame.Ping };
  Session.note_wire sess id;
  let deadline = now () + 2_000_000_000 in
  let rec await () =
    if now () < deadline then begin
      ignore (Session.flush sess);
      ignore (Unix.select [ sess.Session.fd ] [] [] 0.01);
      ignore (Session.fill sess);
      match Session.next_frame sess with
      | `Frame { Frame.id = fid; payload = Frame.Response Frame.Pong } when fid = id ->
          Obs.Trace.emit Obs.Trace.Req_done id (Frame.opcode (Frame.Response Frame.Pong)) 0
      | _ -> await ()
    end
  in
  await ()

type net_layer = {
  rpc_us : float;
  queue_us : float;
  queue_p99_us : float;
  serve_us : float;
  write_us : float;
  queue_depth : float;
  retry_share : float;
}

(* Net-layer numbers from one traced phase: wire events paired into
   spans by [Obs.Merge]. Client and server share this process's clock, so
   the snapshot needs no offset correction. *)
let net_layer (snap : Obs.Trace.snapshot) =
  let spans = Obs.Merge.synthesize_spans snap in
  let tbl = Hashtbl.create 4 in
  let depth_sum = ref 0 and depth_n = ref 0 and bounced = ref 0 in
  Array.iter
    (fun (e : Obs.Trace.event) ->
      if e.seq >= spans.Obs.Trace.complete_from then
        match e.kind with
        | Obs.Trace.Span when Obs.Merge.span_name e.a <> None ->
            let h =
              match Hashtbl.find_opt tbl e.a with
              | Some h -> h
              | None ->
                  let h = Histogram.create ~sub_bits:9 () in
                  Hashtbl.replace tbl e.a h;
                  h
            in
            Histogram.record h e.b
        | Obs.Trace.Req_recv ->
            if e.b < 0 then incr bounced
            else begin
              depth_sum := !depth_sum + e.b;
              incr depth_n
            end
        | _ -> ())
    spans.Obs.Trace.events;
  let pct op p =
    match Hashtbl.find_opt tbl op with
    | Some h when Histogram.count h > 0 -> float_of_int (Histogram.percentile h p) /. 1e3
    | _ -> 0.0
  in
  let recv = !depth_n + !bounced in
  {
    rpc_us = pct Obs.Merge.op_rpc 50.0;
    queue_us = pct Obs.Merge.op_queue 50.0;
    queue_p99_us = pct Obs.Merge.op_queue 99.0;
    serve_us = pct Obs.Merge.op_serve 50.0;
    write_us = pct Obs.Merge.op_write 50.0;
    queue_depth = (if !depth_n = 0 then 0.0 else float_of_int !depth_sum /. float_of_int !depth_n);
    retry_share = (if recv = 0 then 0.0 else float_of_int !bounced /. float_of_int recv);
  }

(* One measured slice of open-loop load. *)
type slice = {
  phase : phase;
  peak : int; (* peak unreclaimed blocks during the slice *)
  serve_ns : int; (* shardkv op time during the slice *)
  acc : Timed.acc option;
  net : net_layer option;
}

(* What the end of a scheme's run found. *)
type final = {
  stalled : int; (* peak unreclaimed blocks over the stalled phase *)
  fences : int;
  restarts : int;
  failures : string list;
}

(* kv-open's inputs, generated from the seed. *)
type args = {
  prefill : int array;
  stall_sched : int array * Frame.request array;
  keys : int;
}

(* A scheme's server after set-up, ready for slices. *)
type inst = {
  slice : trace_net:bool -> int array * Frame.request array -> slice;
  finish : unit -> final;
}

let sock_counter = ref 0

module Make
    (S : Smr.Smr_intf.S)
    (I : sig
      val inspect : S.t -> Timed.acc option
    end) =
struct
  module Srv = Net.Server.Make (S)
  module Kv = Srv.Kv

  type st = {
    srv : Srv.t;
    kv : int Kv.t;
    sess : Session.t;
    stats : Stats.t;
    prefilled : int;
    mutable ins : int;
    mutable rm : int;
    fences0 : int;
    restarts0 : int;
    failures : string list ref;
  }

  let fail st fmt = Printf.ksprintf (fun s -> st.failures := s :: !(st.failures)) fmt

  let serve_ns srv =
    let snap = Srv.snapshot srv ~elapsed:1.0 in
    List.fold_left
      (fun acc (_, (s : Histogram.summary)) -> acc + int_of_float (s.mean *. float_of_int s.count))
      0 snap.Service.Service_stats.per_op

  (* Set-up: server start, in-process prefill, client connect. *)
  let setup ~prefill =
    incr sock_counter;
    let path = Printf.sprintf ".pb-%d-%d.sock" (Unix.getpid ()) !sock_counter in
    let addr = Net.Addr.Unix_sock path in
    let t_setup = now () in
    let srv = Srv.start ~reactors:1 ~queue_bound:64 ~shards:4 [ addr ] in
    let kv = Srv.kv srv in
    let s = Kv.attach kv in
    Array.iter (fun k -> ignore (Kv.put_s kv s k k)) prefill;
    Kv.detach_session s;
    let fd = Net.Addr.connect addr in
    Unix.set_nonblock fd;
    let sess = Session.create fd in
    let setup_ns = now () - t_setup in
    let stats = S.stats (Kv.scheme kv) in
    let st =
      {
        srv; kv; sess; stats;
        prefilled = Array.length prefill;
        ins = 0; rm = 0;
        fences0 = Stats.heavy_fences stats;
        restarts0 = Stats.protection_failures stats;
        failures = ref [];
      }
    in
    if !Libwork.fault = Libwork.Uaf_off then Smr_core.Mem.set_checking false;
    if not (Smr_core.Mem.checking ()) then fail st "%s: UAF detector disarmed" S.name;
    (st, setup_ns)

  let account st p =
    st.ins <- st.ins + p.inserted;
    st.rm <- st.rm + p.removed;
    if p.abandoned > 0 then fail st "%s: %d requests abandoned" S.name p.abandoned;
    if p.errors > 0 then fail st "%s: %d error replies" S.name p.errors

  (* One slice: run [sched]. [trace_net] records wire events during it and
     derives the net layer from them. *)
  let slice st sched ~trace_net =
    let scheme = Kv.scheme st.kv in
    let acc0 = I.inspect scheme in
    let serve0 = serve_ns st.srv in
    let before = Stats.peak_unreclaimed st.stats in
    let best = ref 0 in
    let tick () = best := max !best (Stats.unreclaimed st.stats) in
    if trace_net then begin
      Obs.Trace.enable ~capacity:(1 lsl 17) ();
      warm_rings st.sess
    end;
    let phase = run_phase st.sess sched ~tick ~drain:2.0 in
    let net =
      if trace_net then begin
        Obs.Trace.disable ();
        let l = net_layer (Obs.Trace.snapshot ()) in
        Obs.Trace.reset ();
        Some l
      end
      else None
    in
    tick ();
    let after = Stats.peak_unreclaimed st.stats in
    let peak = if after > before then max !best after else !best in
    account st phase;
    let acc = match (acc0, I.inspect scheme) with Some a, Some b -> Some (Timed.diff_acc b a) | _ -> None in
    { phase; peak; serve_ns = serve_ns st.srv - serve0; acc; net }

  (* The stalled phase: a victim session parks holding protection while
     the generator keeps offering [sched]; the reactor is idle when the
     plan is armed, so only the victim can trip it. Returns the phase's
     peak unreclaimed blocks. *)
  let stall st sched ~keys =
    let stats = st.stats and kv = st.kv in
    let before = Stats.peak_unreclaimed stats in
    Fault.reset ();
    Fault.arm ~point:(Libwork.stall_point_of S.name) ~action:Fault.Stall ~after:1 ();
    let vstop = Atomic.make false and vdom = Atomic.make (-1) in
    let victim =
      Domain.spawn (fun () ->
          let vs = Kv.attach kv in
          Atomic.set vdom (Domain.self () :> int);
          let k = ref 0 in
          while not (Atomic.get vstop) do
            ignore (Kv.get_s kv vs (!k mod keys));
            incr k
          done;
          Kv.detach_session vs)
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
      let tick () = stalled := max !stalled (Stats.unreclaimed stats) in
      account st (run_phase st.sess sched ~tick ~drain:2.0);
      tick ();
      (* the peak is folded at every reclaim entry: when it rose during the
         stall it is the phase's exact peak *)
      let pk = Stats.peak_unreclaimed stats in
      if pk > before then stalled := max !stalled pk
    end;
    Fault.release ();
    Atomic.set vstop true;
    Domain.join victim;
    Fault.reset ();
    !stalled

  (* After the last slice: the stalled phase, then the checks. *)
  let finish st stall_sched ~keys =
    let stats = st.stats and kv = st.kv in
    let fences = Stats.heavy_fences stats - st.fences0 in
    let restarts = Stats.protection_failures stats - st.restarts0 in
    let stalled = stall st stall_sched ~keys in
    let expected = st.prefilled + st.ins - st.rm in
    (match Kv.validate kv with
    | size ->
        if size <> expected then
          fail st "%s: final size %d, expected prefill %d + inserts %d - removes %d = %d" S.name
            size st.prefilled st.ins st.rm expected
    | exception e -> fail st "%s: validate failed (%s)" S.name (Printexc.to_string e));
    Session.close st.sess;
    Srv.stop st.srv;
    let residue = Srv.residue st.srv in
    if residue <> 0 then fail st "%s: %d blocks unreclaimed after server stop" S.name residue;
    { stalled; fences; restarts; failures = List.rev !(st.failures) }

  (* One set-up: its time in ns and the instance. A run has only five
     rounds, so the time is the median of three set-ups, two of them of
     servers stopped at once (their checks count too). *)
  let start (a : args) =
    let spare () =
      let st, ns = setup ~prefill:a.prefill in
      Session.close st.sess;
      Srv.stop st.srv;
      let residue = Srv.residue st.srv in
      if residue <> 0 then fail st "%s: %d blocks unreclaimed after server stop" S.name residue;
      (ns, !(st.failures))
    in
    let spares = [ spare (); spare () ] in
    let st, ns = setup ~prefill:a.prefill in
    List.iter (fun (_, f) -> st.failures := f @ !(st.failures)) spares;
    let ns = List.nth (List.sort compare (ns :: List.map fst spares)) 1 in
    ( ns,
      {
        slice = (fun ~trace_net sched -> slice st sched ~trace_net);
        finish = (fun () -> finish st a.stall_sched ~keys:a.keys);
      } )
end
