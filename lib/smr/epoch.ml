module Trace = Obs.Trace

(* A participant's presence word: 0 when quiescent, [epoch * 2 + 1] when
   inside a critical section pinned at [epoch]. One word so that enter/exit
   are single SC stores. *)
let quiescent = 0
let pinned_at epoch = (epoch lsl 1) lor 1
let is_pinned status = status land 1 = 1
let pinned_epoch status = status lsr 1

type participant = {
  status : int Atomic.t;
  alive : bool Atomic.t;
  neutralized : bool Atomic.t;
}

type t = { global : int Atomic.t; participants : participant list Atomic.t }

let create () = { global = Atomic.make 0; participants = Atomic.make [] }
let current t = Atomic.get t.global

let join t =
  let p =
    {
      status = Atomic.make quiescent;
      alive = Atomic.make true;
      neutralized = Atomic.make false;
    }
  in
  let rec push () =
    let cur = Atomic.get t.participants in
    if not (Atomic.compare_and_set t.participants cur (p :: cur)) then push ()
  in
  push ();
  p

let pin t p = Atomic.set p.status (pinned_at (Atomic.get t.global))
let unpin p = Atomic.set p.status quiescent

let lags ~epoch p =
  Atomic.get p.alive
  &&
  let s = Atomic.get p.status in
  is_pinned s && pinned_epoch s <> epoch

(* Whether a live participant pinned before [epoch] blocks the advance.
   With [laggard], every such participant is acted on instead and none
   blocks. Plain recursion rather than an iterator closure, so an advance
   attempt allocates nothing. *)
let rec blocked ~epoch laggard = function
  | [] -> false
  | p :: rest -> (
      match laggard with
      | Some act ->
          if lags ~epoch p then act p;
          blocked ~epoch laggard rest
      | None -> lags ~epoch p || blocked ~epoch laggard rest)

(* A stalled critical section pins the epoch unless a [laggard] action is
   given: that is exactly EBR's non-robustness, and PEBR's escape from it.
   Either way, a participant that stays pinned at epoch [e] and is not
   acted on guarantees the global epoch is at most [e + 1], which is the
   grace period [ripe] relies on. *)
let try_advance ?laggard t =
  let epoch = Atomic.get t.global in
  let ps = Atomic.get t.participants in
  let blocked = blocked ~epoch laggard ps in
  if List.exists (fun p -> not (Atomic.get p.alive)) ps then begin
    let pruned = List.filter (fun p -> Atomic.get p.alive) ps in
    (* Losing the race (a concurrent register) just postpones the pruning
       to the next advance attempt. *)
    ignore (Atomic.compare_and_set t.participants ps pruned)
  end;
  if (not blocked) && Atomic.compare_and_set t.global epoch (epoch + 1) then begin
    (* b = 1 marks a forced advance, i.e. laggards were acted on. *)
    let forced = Option.is_some laggard in
    Trace.emit Trace.Epoch_advance (-1) (epoch + 1) (if forced then 1 else 0)
  end

let ripe ~epoch e = e + 2 <= epoch
