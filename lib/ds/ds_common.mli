(** Scheme-generic protection helpers shared by the data structures: TryProtect (optimistic and pessimistic), the critical-section retry loop, trace hooks.

    Restart protocol: a traversal step that fails validation raises
    {!Restart}; a structure whose CAS lost a race raises {!Contended}.
    {!Make.with_crit} catches both and runs its body again. Both are
    constant exceptions raised with [raise_notrace], so the failure path
    allocates nothing either. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
module Trace = Obs.Trace

exception Restart
(** A protection failed validation (paper §4.3): restart the operation. *)

exception Contended
(** A CAS lost a race: go round again. Not counted as a protection
    failure. *)

module Make :
  functor (S : Smr.Smr_intf.S) ->
    sig
      exception Restart
      (** The same exception as {!Ds_common.Restart}. *)

      exception Contended
      (** The same exception as {!Ds_common.Contended}. *)

      val uid_of_hdr : Mem.header -> int
      (** The header's uid, or -1 for {!Mem.phantom} ("no source"). *)

      val trace_step :
        node_header:('a -> Mem.header) ->
        src:Mem.header -> validated:bool -> 'a Tagged.t -> unit

      val try_protect :
        src:Mem.header ->
        node_header:('a -> Mem.header) ->
        S.guard -> S.handle -> src_link:'a Link.t -> 'a Tagged.t -> 'a Tagged.t
      (** Protect the target of the expected record and validate it against
          [src_link] (under-approximation: only invalidation fails). Returns
          the validated current record of [src_link], or raises {!Restart}.
          [~src] is the node holding [src_link], {!Mem.phantom} for a root
          link; it only labels trace events. Allocates nothing. *)

      val protect_pessimistic :
        src:Mem.header ->
        node_header:('a -> Mem.header) ->
        S.guard -> S.handle -> src_link:'a Link.t -> 'a Tagged.t -> bool
      (** Over-approximating validation (original HP): true iff [src_link]
          still holds the expected target with a clean tag. *)

      val with_crit : S.handle -> Smr_core.Stats.t -> (unit -> 'a) -> 'a
      (** [with_crit handle stats (fun () -> body)] runs [body] in a
          critical section until it returns, going round again on
          {!Restart} (counted in [stats]) or {!Contended}. A pass with no
          retry allocates nothing beyond [body] itself. *)
    end
