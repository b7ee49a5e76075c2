(** Treiber stack; pop protects the head before dereferencing it.

    Signature inferred from the implementation; the full surface stays
    exported because the harness, tests and sibling modules consume the
    node representations directly. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
module Make :
  functor (S : Smr.Smr_intf.S) ->
    sig
      type 'v node = { hdr : Mem.header; value : 'v; next : 'v node option; }
      val node_header : 'a node -> Mem.header
      type 'v t = { scheme : S.t; top : 'v node Link.t; }
      type local = { handle : S.handle; hp : S.guard; }
      val create : S.t -> 'a t
      val scheme : 'a t -> S.t
      val stats : 'a t -> Smr_core.Stats.t
      val make_local : S.handle -> local
      val clear_local : local -> unit
      val push : 'a t -> local -> 'a -> unit
      val pop : 'a t -> local -> 'a option
      val peek : 'a t -> local -> 'a option
      val to_list : 'a t -> 'a list
      val length : 'a t -> int
    end
