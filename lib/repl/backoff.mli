(** Seeded exponential backoff with full jitter, in clock ticks.

    Reconnect loops ask {!next_delay} how long to wait before the next
    attempt; each call doubles the ceiling (from [base] up to [cap]) and
    draws the actual delay uniformly below it, so a herd of reconnecting
    replicas spreads out instead of retrying in lockstep.  Seeded, so
    tests replay the exact schedule. *)

type t

val create : ?base:int -> ?cap:int -> seed:int -> unit -> t
(** [base] is the first ceiling (default 10 ticks), [cap] the largest
    (default 5000). *)

val next_delay : t -> int
(** Delay in ticks before the next attempt: uniform in
    [0, min (base * 2^n) cap] for the n-th call since the last {!reset}. *)

val reset : t -> unit
(** Call after a successful connection: the next failure starts over at
    the [base] ceiling. *)

