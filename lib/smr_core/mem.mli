(** Simulated manual heap.

    OCaml's GC makes literal use-after-free impossible, so this module gives
    every managed block an explicit lifecycle that reclamation schemes drive
    exactly as they would drive [malloc]/[free]:

    {v Live --retire--> Retired --free--> Freed v}

    A block is a {!header} embedded in a data-structure node. Schemes mark
    headers; data structures call {!check_access} on every dereference, which
    turns what would be undefined behaviour in C into a deterministic
    {!Use_after_free} exception. Lifecycle violations by a scheme itself
    (double retire, double free, freeing a live block) are also detected. *)

exception Use_after_free of int (** uid of the freed block that was accessed *)

exception Double_retire of int
exception Invalid_free of int

type header

val make : Stats.t -> header
(** Allocate a fresh block header, counted in [stats]. Uids are drawn from
    per-domain blocks of 1024 off one global counter, so allocation does
    not contend; uids are unique but not globally ordered. *)

val phantom_uid : int
(** The phantom's uid, [-2]. Distinct from [-1], the "no node" sentinel of
    Step trace events ([Ds_common.uid_of_hdr]), so a phantom leaking into a
    trace cannot masquerade as "stepped from the list head". *)

val phantom : header
(** A shared placeholder header (uid {!phantom_uid}): array filler for
    retire batches, the value of an empty hazard slot, and the "no source
    node" argument of [Ds_common]'s protect helpers. Never retire, free or access it: the retire/free paths
    raise [Invalid_argument] if it reaches them, and the trace-replay
    checker rejects any event carrying its uid. *)

val uid : header -> int
(** Unique id, for hash-set membership during hazard scans. *)

val refcount : header -> int Atomic.t
(** Incoming-link counter, initialized to 1 (the link about to be created).
    Only the reference-counting scheme reads or writes it. *)

val is_live : header -> bool
val is_retired : header -> bool
val is_freed : header -> bool

val retire_mark : header -> unit
(** Transition [Live -> Retired]. @raise Double_retire otherwise. *)

val free_mark : header -> unit
(** Transition [Retired -> Freed]. @raise Invalid_free otherwise. *)

val free_mark_cascade : header -> unit
(** Transition [Live|Retired -> Freed]: reference-counting cascades destroy
    blocks that were never explicitly retired. @raise Invalid_free on double
    free. *)

val check_access : header -> unit
(** @raise Use_after_free if the block is freed and checking is enabled.
    Accessing [Live] or [Retired] blocks is legal (a retired block may still
    be protected by a hazard pointer). *)

val set_checking : bool -> unit
(** Globally enable/disable {!check_access} (default: enabled). Disabling is
    only intended for benchmark runs that want the detector's cost out of the
    way; tests always run with it on. *)

val checking : unit -> bool
