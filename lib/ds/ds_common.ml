(** Scheme-generic protection helpers shared by the data structures. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link

module Trace = Obs.Trace

(* Constant exceptions: raising them allocates nothing, and [raise_notrace]
   skips the backtrace. *)
exception Restart
exception Contended

module Make (S : Smr.Smr_intf.S) = struct
  exception Restart = Restart
  exception Contended = Contended

  (* [Mem.phantom] stands for "no source node" (the structure's entry
     link); the trace records it as -1, never as the phantom's own uid. *)
  let uid_of_hdr h = if h == Mem.phantom then -1 else Mem.uid h

  (* A validated protection (the slot store survived validation) plus the
     traversal step it enables. The Step event records the tag bits actually
     read from [src_link]: a scheme or structure that wrongly proceeds past
     an invalidated link would record the invalid bit here, which is exactly
     what the trace-replay checker flags. *)
  let trace_step ~node_header ~src ~validated l =
    if Trace.enabled () then begin
      let dst = Tagged.ptr l in
      (match dst with
      | Some n when validated ->
          Trace.emit Trace.Protect (Mem.uid (node_header n)) 0 0
      | _ -> ());
      Trace.emit Trace.Step (uid_of_hdr src)
        (match dst with Some n -> Mem.uid (node_header n) | None -> -1)
        (Tagged.tag l)
    end

  (* Protect [exp]'s target, then validate against [src_link]; a link that
     moved to a new target is chased, announcing protection anew each time.
     Top level with every input as an argument, so no closure is built. *)
  let rec chase ~src ~node_header guard handle ~src_link exp =
    (match Tagged.ptr exp with
    | Some n -> S.protect guard (node_header n)
    | None -> ());
    if not (S.protection_valid handle) then begin
      Trace.emit Trace.Validation_fail (uid_of_hdr src) 0 0;
      raise_notrace Restart
    end
    else
      let l = Link.get src_link in
      if Tagged.is_invalid l then begin
        Trace.emit Trace.Validation_fail (uid_of_hdr src) (Tagged.tag l) 0;
        raise_notrace Restart
      end
      else if Tagged.same_ptr l exp then begin
        if Trace.enabled () then trace_step ~node_header ~src ~validated:true l;
        l
      end
      else chase ~src ~node_header guard handle ~src_link l

  (* Paper Algorithm 3 TryProtect, under-approximating validation:
     protection only fails when [src_link] carries the invalidation bit (or,
     under PEBR, this thread was neutralized); logical-deletion tags are
     ignored, so optimistic traversal through deleted chains succeeds.
     Returns the current value of [src_link] — same target as [expected],
     possibly retagged — or raises [Restart]. [~src] is the node [src_link]
     lives in, for the trace only. *)
  let try_protect ~src ~node_header guard handle ~src_link expected =
    if not S.needs_protection then begin
      if Trace.enabled () then
        trace_step ~node_header ~src ~validated:false expected;
      expected
    end
    else chase ~src ~node_header guard handle ~src_link expected

  (* Over-approximating validation (original HP, paper §2.2): succeed only
     if [src_link] still holds exactly [expected]'s target with a clean tag;
     any change — including the source's logical deletion — fails. *)
  let protect_pessimistic ~src ~node_header guard handle ~src_link expected =
    if not S.needs_protection then begin
      if Trace.enabled () then
        trace_step ~node_header ~src ~validated:false expected;
      true
    end
    else begin
      (match Tagged.ptr expected with
      | Some n -> S.protect guard (node_header n)
      | None -> ());
      if
        S.protection_valid handle
        &&
        let l = Link.get src_link in
        Tagged.same_ptr l expected && Tagged.tag l = 0
      then begin
        if Trace.enabled () then
          trace_step ~node_header ~src ~validated:true expected;
        true
      end
      else begin
        Trace.emit Trace.Validation_fail (uid_of_hdr src) 0 0;
        false
      end
    end

  (* Go round again after [Restart] (a protection failure, counted: paper
     §4.3) or [Contended] (a lost CAS). Both refresh the critical section so
     a long string of retries cannot pin the epoch, and back off
     exponentially so a burst of contention does not degenerate into a CAS
     storm. *)
  let rec retry handle stats body backoff =
    S.crit_refresh handle;
    Smr_core.Backoff.once backoff;
    match body () with
    | result ->
        S.crit_exit handle;
        result
    | exception Restart ->
        Smr_core.Stats.on_protection_failure stats;
        retry handle stats body backoff
    | exception Contended -> retry handle stats body backoff

  (* Run [body] inside a critical section until it returns. The first pass
     allocates nothing; the backoff state is built on the first retry. Any
     other exception (a [Fault.Killed] crash) escapes with the critical
     section still held, for [report_crashed] to recover. *)
  let with_crit handle stats body =
    S.crit_enter handle;
    match body () with
    | result ->
        S.crit_exit handle;
        result
    | exception Restart ->
        Smr_core.Stats.on_protection_failure stats;
        retry handle stats body (Smr_core.Backoff.create ())
    | exception Contended ->
        retry handle stats body (Smr_core.Backoff.create ())
end
