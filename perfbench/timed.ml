(* Timing wrappers for the traced run.

   [Make (S)] is a reclamation scheme that forwards every call to [S] and
   records, per handle, how often each [Smr_intf.S] entry point ran, how
   long it took and how many minor-heap words it allocated. It is applied
   under the data-structure functors and under [Net.Server.Make], so the
   library itself is unchanged and the untraced run uses plain [S].

   [Ds (S) (D)] wraps a structure's public get/insert/remove the same way
   and charges the smr time spent inside each call as child time, which
   gives the structure's self time.

   Every wrapper is allocation-free on its own: clock and word readings
   are unboxed ints and accumulators are int arrays. *)

let[@inline] now () = Int64.to_int (Monotonic_clock.now ())
let[@inline] words () = int_of_float (Gc.minor_words ())

(* One handle's counters, an int array indexed by the constants below so
   totals and differences are plain loops. Single writer (the owner). *)
type acc = int array

let protect_n = 0
let protect_ns = 1
let crit_n = 2
let crit_ns = 3
let retire_n = 4 (* retires that freed nothing *)
let retire_ns = 5
let unlink_n = 6 (* try_unlinks that freed nothing *)
let unlink_ns = 7
let reclaim_n = 8 (* retire/unlink calls during which [freed] advanced *)
let reclaim_ns = 9
let reclaim_freed = 10
let flush_n = 11
let flush_ns = 12
let cb_ns = 13 (* time inside try_unlink callbacks (structure code) *)
let cb_words = 14
let smr_ns = 15 (* self time of every smr call *)
let smr_words = 16
let get_n = 17
let get_ns = 18
let upd_n = 19
let upd_ns = 20
let ds_smr_ns = 21 (* smr time spent inside structure calls *)
let ds_words = 22
let fields = 23

let new_acc () : acc = Array.make fields 0

let[@inline] bump (a : acc) i v = Array.unsafe_set a i (Array.unsafe_get a i + v)

let sum_accs accs =
  let s = new_acc () in
  List.iter (fun a -> Array.iteri (fun i v -> bump s i v) a) accs;
  s

let diff_acc (later : acc) (earlier : acc) : acc =
  Array.mapi (fun i v -> v - earlier.(i)) later

(* Close one smr span opened at [t0]/[w0]: charge its self time and words
   (callback time and words excluded) and return the self time. *)
let close (a : acc) ~t0 ~w0 ~cb0 ~cw0 =
  let dt = now () - t0 - (a.(cb_ns) - cb0) in
  let dw = words () - w0 - (a.(cb_words) - cw0) in
  bump a smr_ns dt;
  bump a smr_words dw;
  dt

module Make (S : Smr.Smr_intf.S) = struct
  let name = S.name
  let robust = S.robust
  let supports_optimistic = S.supports_optimistic
  let needs_protection = S.needs_protection
  let counts_references = S.counts_references

  type t = { s : S.t; accs : acc list Atomic.t }
  type handle = { h : S.handle; acc : acc; st : Smr_core.Stats.t }
  type guard = { g : S.guard; gacc : acc }

  let create ?config () = { s = S.create ?config (); accs = Atomic.make [] }
  let stats t = S.stats t.s

  (* Counters summed over every handle ever registered on [t]. *)
  let totals t = sum_accs (Atomic.get t.accs)

  let register t =
    let acc = new_acc () in
    let rec add () =
      let cur = Atomic.get t.accs in
      if not (Atomic.compare_and_set t.accs cur (acc :: cur)) then add ()
    in
    add ();
    { h = S.register t.s; acc; st = S.stats t.s }

  let unregister h = S.unregister h.h

  (* [timed a ~n ~ns f x]: run [f x] as one smr span counted in [n]/[ns]. *)
  let[@inline] timed a ~n ~ns f x =
    let cb0 = a.(cb_ns) and cw0 = a.(cb_words) in
    let w0 = words () in
    let t0 = now () in
    f x;
    let dt = close a ~t0 ~w0 ~cb0 ~cw0 in
    bump a n 1;
    bump a ns dt

  let crit_enter h = timed h.acc ~n:crit_n ~ns:crit_ns S.crit_enter h.h
  let crit_exit h = timed h.acc ~n:crit_n ~ns:crit_ns S.crit_exit h.h
  let crit_refresh h = timed h.acc ~n:crit_n ~ns:crit_ns S.crit_refresh h.h
  let guard h = { g = S.guard h.h; gacc = h.acc }

  let protect g hdr =
    let a = g.gacc in
    let cb0 = a.(cb_ns) and cw0 = a.(cb_words) in
    let w0 = words () in
    let t0 = now () in
    S.protect g.g hdr;
    let dt = close a ~t0 ~w0 ~cb0 ~cw0 in
    bump a protect_n 1;
    bump a protect_ns dt

  let release g = S.release g.g
  let protection_valid h = S.protection_valid h.h

  (* A retire or unlink during which the domain's freed count advanced ran
     a reclamation pass: it is charged as a reclaim span instead. The count
     is domain-wide, so another thread's pass overlapping this call is
     charged here too. *)
  let charge_retire a ~unlink ~dt ~freed =
    if freed > 0 then begin
      bump a reclaim_n 1;
      bump a reclaim_ns dt;
      bump a reclaim_freed freed
    end
    else if unlink then begin
      bump a unlink_n 1;
      bump a unlink_ns dt
    end
    else begin
      bump a retire_n 1;
      bump a retire_ns dt
    end

  let retire h hdr =
    let a = h.acc in
    let f0 = Smr_core.Stats.freed h.st in
    let cb0 = a.(cb_ns) and cw0 = a.(cb_words) in
    let w0 = words () in
    let t0 = now () in
    S.retire h.h hdr;
    let dt = close a ~t0 ~w0 ~cb0 ~cw0 in
    charge_retire a ~unlink:false ~dt ~freed:(Smr_core.Stats.freed h.st - f0)

  let retire_with_children h hdr ~children =
    let a = h.acc in
    let f0 = Smr_core.Stats.freed h.st in
    let cb0 = a.(cb_ns) and cw0 = a.(cb_words) in
    let w0 = words () in
    let t0 = now () in
    S.retire_with_children h.h hdr ~children;
    let dt = close a ~t0 ~w0 ~cb0 ~cw0 in
    charge_retire a ~unlink:false ~dt ~freed:(Smr_core.Stats.freed h.st - f0)

  let incr_ref = S.incr_ref

  (* The callbacks are structure code: their time and words are recorded
     separately and excluded from the smr span around them. *)
  let try_unlink h ~frontier ~do_unlink ~node_header ~invalidate =
    let a = h.acc in
    let do_unlink () =
      let w0 = words () in
      let t0 = now () in
      let r = do_unlink () in
      bump a cb_ns (now () - t0);
      bump a cb_words (words () - w0);
      r
    in
    let invalidate ns =
      let w0 = words () in
      let t0 = now () in
      invalidate ns;
      bump a cb_ns (now () - t0);
      bump a cb_words (words () - w0)
    in
    let f0 = Smr_core.Stats.freed h.st in
    let cb0 = a.(cb_ns) and cw0 = a.(cb_words) in
    let w0 = words () in
    let t0 = now () in
    let ok = S.try_unlink h.h ~frontier ~do_unlink ~node_header ~invalidate in
    let dt = close a ~t0 ~w0 ~cb0 ~cw0 in
    charge_retire a ~unlink:true ~dt ~freed:(Smr_core.Stats.freed h.st - f0);
    ok

  let flush h = timed h.acc ~n:flush_n ~ns:flush_ns S.flush h.h
  let shutdown t = S.shutdown t.s
  let collector_stats t = S.collector_stats t.s
  let report_crashed h = S.report_crashed h.h
  let acc h = h.acc
end

(* The structure surface the library workloads drive. *)
module type DS = sig
  type scheme
  type handle
  type 'v t
  type local

  val create : scheme -> 'v t
  val make_local : handle -> local
  val clear_local : local -> unit
  val get : 'v t -> local -> int -> 'v option
  val insert : 'v t -> local -> int -> 'v -> bool
  val remove : 'v t -> local -> int -> bool
  val size : 'v t -> int
  val assert_reachable_not_freed : 'v t -> unit
end

(* Spans around a structure's public calls. The smr self time charged to
   the same handle while the call ran is its child time. *)
module Ds
    (H : sig
      type handle

      val acc : handle -> acc
    end)
    (D : DS with type handle = H.handle) =
struct
  type scheme = D.scheme
  type handle = D.handle
  type 'v t = 'v D.t
  type local = { l : D.local; a : acc }

  let create = D.create
  let make_local h = { l = D.make_local h; a = H.acc h }
  let clear_local lo = D.clear_local lo.l
  let size = D.size
  let assert_reachable_not_freed = D.assert_reachable_not_freed

  let[@inline] finish a ~n ~ns ~t0 ~w0 ~s0 =
    let dt = now () - t0 in
    bump a ds_words (words () - w0);
    bump a n 1;
    bump a ns dt;
    bump a ds_smr_ns (a.(smr_ns) - s0)

  let get d lo k =
    let a = lo.a in
    let s0 = a.(smr_ns) in
    let w0 = words () in
    let t0 = now () in
    let r = D.get d lo.l k in
    finish a ~n:get_n ~ns:get_ns ~t0 ~w0 ~s0;
    r

  let insert d lo k v =
    let a = lo.a in
    let s0 = a.(smr_ns) in
    let w0 = words () in
    let t0 = now () in
    let r = D.insert d lo.l k v in
    finish a ~n:upd_n ~ns:upd_ns ~t0 ~w0 ~s0;
    r

  let remove d lo k =
    let a = lo.a in
    let s0 = a.(smr_ns) in
    let w0 = words () in
    let t0 = now () in
    let r = D.remove d lo.l k in
    finish a ~n:upd_n ~ns:upd_ns ~t0 ~w0 ~s0;
    r
end
