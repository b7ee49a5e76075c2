(** Chaining hash map (Michael, SPAA 2002) over lock-free list buckets:
    Harris–Michael lists when the scheme cannot protect optimistic
    traversal (HP), Harris lists with wait-free get otherwise. *)

module Make :
  functor (S : Smr.Smr_intf.S) ->
    sig
      type 'v t
      type local

      val default_buckets : int
      val hash_key : int -> int -> int
      val create_sized : buckets:int -> S.t -> 'a t
      val create : S.t -> 'a t
      val scheme : 'a t -> S.t
      val stats : 'a t -> Smr_core.Stats.t
      val make_local : S.handle -> local
      val clear_local : local -> unit
      val get : 'a t -> local -> int -> 'a option
      val insert : 'a t -> local -> int -> 'a -> bool
      val remove : 'a t -> local -> int -> bool
      val to_list : 'a t -> (int * 'a) list
      val size : 'a t -> int
      val assert_reachable_not_freed : 'a t -> unit
    end
