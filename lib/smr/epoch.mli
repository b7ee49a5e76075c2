(** The global epoch and participant list shared by EBR and PEBR.

    A participant's presence is one status word: quiescent, or pinned at
    the epoch it observed on entering its critical section. Enter and exit
    are single SC stores. The global epoch advances only past participants
    that have observed it; an entry retired at epoch [e] is ripe once the
    global epoch reaches [e + 2]. *)

type participant = {
  status : int Atomic.t;  (** quiescent, or pinned at an epoch *)
  alive : bool Atomic.t;  (** cleared on unregister or crash *)
  neutralized : bool Atomic.t;
      (** PEBR only: a forced advance withdrew this participant's blanket
          epoch protection. EBR never sets it. *)
}

type t

val create : unit -> t

val current : t -> int
(** The global epoch. *)

val join : t -> participant
(** A fresh quiescent, live participant, pushed onto the list. *)

val pin : t -> participant -> unit
(** Enter a critical section at the current global epoch. *)

val unpin : participant -> unit

val try_advance : ?laggard:(participant -> unit) -> t -> unit
(** Advance the global epoch iff every live pinned participant has observed
    the current one. With [laggard], a participant pinned at an older epoch
    does not block the advance: the action runs on it instead (PEBR's
    neutralization under memory pressure), and the [Epoch_advance] trace
    event carries [b = 1]. Dead participants met along the way are pruned
    from the list with a best-effort CAS. *)

val ripe : epoch:int -> int -> bool
(** [ripe ~epoch e]: at global epoch [epoch], an entry retired at epoch [e]
    is past its grace period. *)
