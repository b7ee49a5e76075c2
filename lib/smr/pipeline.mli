(** The reclamation pipeline shared by HP, HP++, EBR and PEBR: retire bags,
    their handoff to the background collector, the collector's drain, the
    inline fallback, the orphanage and shutdown.

    A scheme supplies only its {e pass over a bag} — HP's hazard snapshot
    and scan, HP++'s epoched heavy fence and the same scan, EBR's epoch
    advance and ripe-free, PEBR's (possibly forced) advance and scan — plus
    how to salvage a bag a crash may have torn. Everything else about
    moving retired entries between a handle, the ring, the collector's
    pending bag and the orphanage lives here, once.

    The per-retire hot path stays in the scheme: it pushes into
    [local.bag] and compares a counter against [local.grain], both plain
    field accesses. Only a crossing calls {!hand_off}. *)

type 'e t
(** One scheme instance's pipeline over bag entries of type ['e]. *)

type 'e local = {
  mutable bag : 'e Retire_bag.t;
      (** the handle's own retire bag; swapped for a recycled empty one on
          every successful handoff *)
  mutable since_pass : int;
      (** entries pushed since the last pass or handoff; the fallback gate
          of the epoch schemes (see {!hand_off}) *)
  grain : int;
      (** the handle acts when its trigger counter reaches this:
          [reclaim_threshold] inline, and in async mode the handoff grain
          [min reclaim_threshold (max 16 (reclaim_threshold / 8))] *)
}
(** Per-handle state. Single-owner: only the owning domain touches it. *)

val create :
  config:Smr_intf.config ->
  stats:Smr_core.Stats.t ->
  dummy:'e ->
  salvage:(('e -> int) * ('e -> bool)) option ->
  pass:('e Retire_bag.t -> unit) ->
  'e t
(** [pass] is the scheme's pass over the collector's pending bag; it runs
    only on the collector domain, after the drain has folded the handed-off
    bags and the orphans into that bag and noted peaks. [salvage] is the
    [(uid, skip)] pair of {!Retire_bag.salvage} for bags a crash may have
    torn mid-pass; [None] adopts such bags verbatim (EBR, whose pass has no
    fault point inside its filter). With [config.async_reclaim] the
    collector domain is spawned here. *)

val local : 'e t -> 'e local
(** A fresh per-handle state. *)

val hand_off : 'e t -> 'e local -> gate:int -> bool
(** The handle's trigger crossed [grain]. Inline mode: [true], run the
    inline pass now. Async mode with a running collector: a bag of at most
    [2 * grain] entries is offered to the ring and, on success, replaced by
    a recycled empty one ([false]). Otherwise (ring full, bag too big,
    collector stalled or dead) the bag keeps accumulating until [gate]
    reaches [reclaim_threshold]; then every queued bag is stolen into it
    and the result is [true]. [gate] is the bag length for the hazard
    schemes, whose survivors are few, and [since_pass] for the epoch
    schemes, whose unripe survivors would otherwise keep the gate open
    after every pass. *)

val running : 'e t -> bool
(** A collector exists and is accepting bags. *)

val adopt : 'e t -> 'e local -> unit
(** Fold the orphanage into the handle's bag, ahead of an inline pass. *)

val release : 'e t -> 'e local -> unit
(** Unregistration: donate the handle's bag to the orphanage verbatim. *)

val abandon : 'e t -> 'e local -> unit
(** Crash recovery: salvage the handle's (possibly torn) bag in place, then
    donate it to the orphanage. *)

val shutdown : 'e t -> unit
(** Stop the collector, if any: {!Collector.shutdown} drains the ring and
    recovers what a dead collector left queued, then the pending bag is
    salvaged and donated, so everything handed off is either freed or back
    in the orphanage. Idempotent. *)

val collector_stats : 'e t -> Collector.stats option
val collector_counters : 'e t -> Collector.counters option
