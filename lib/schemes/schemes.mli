(** The registry of reclamation schemes: every implementation of
    {!Smr.Smr_intf.S}, in the column order of the paper's tables. Benches,
    servers, the model checker and the benchmark matrix look schemes up
    here, so a new scheme is one line of this list. *)

val all : (module Smr.Smr_intf.S) list
(** NR, EBR, PEBR, HP, HP++, RC. *)

val names : string list
(** The [name] of each of {!all}, in order. *)

val find : string -> (module Smr.Smr_intf.S)
(** The scheme called [name]. Raises [Invalid_argument] listing the valid
    names when there is none. *)
