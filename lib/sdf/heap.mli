(** Imperative binary min-heap keyed by integers.

    Shared by the self-timed SDF execution engine and (via the [sim]
    library) the platform simulator's event queue. Entries with equal keys
    are returned in insertion order, which keeps timed executions
    deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int
val add : 'a t -> key:int -> 'a -> unit

val min_key : 'a t -> int option
(** Key of the smallest entry without removing it. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the entry with the smallest key (ties: first added). *)

val top_key : 'a t -> int
(** {!min_key} without the option, for hot loops.
    @raise Invalid_argument on an empty heap. *)

val pop_value : 'a t -> 'a
(** {!pop} returning only the value, for hot loops.
    @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit
