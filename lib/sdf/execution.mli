(** Self-timed execution of SDF graphs.

    The engine implements the operational semantics used by SDF3-style
    analyses: an actor starts a firing as soon as every incoming channel
    holds enough tokens (consuming them immediately) and finishes
    [execution_time] cycles later (producing its output tokens then). Time
    advances in discrete steps to the next firing completion.

    Two restrictions of the pure semantics are supported because they are
    exactly what the generated MAMPS platform imposes:

    - {b auto-concurrency}: at most [k] simultaneous firings per actor
      (default 1, matching a single-threaded software actor);
    - {b resource bindings}: a set of actors bound to one processing element
      executes sequentially, in a fixed cyclic static order.

    The timed execution is deterministic, so the engine can also be driven
    to a recurrent state for exact throughput analysis (see {!Throughput}). *)

type resource_binding = {
  resource_name : string;
  static_order : Graph.actor_id array;
      (** One iteration's worth of firings, repeated cyclically. An actor
          with repetition count [q] appears [q] times. *)
}

type options = {
  auto_concurrency : int option;
      (** Max simultaneous firings of an unbound actor; [None] = unbounded.
          Resource-bound actors are serialized by their resource anyway. *)
  resources : resource_binding list;
  firing_time : (Graph.actor -> int) option;
      (** Overrides the per-firing duration; called at firing start. Must be
          deterministic when the run feeds a recurrence-based analysis. *)
  max_firings : int;  (** safety budget before giving up *)
  on_event : (int -> event -> unit) option;
      (** Trace hook: called with the current time at firing start/end. *)
}

and event = Fire_start of Graph.actor_id | Fire_end of Graph.actor_id

val default_options : options
(** auto-concurrency 1, no resources, WCET firing times, budget 10^7. *)

type engine

val create : ?options:options -> Graph.t -> engine
(** @raise Invalid_argument if a resource order names an unknown actor or
    binds an actor to two resources. *)

(** Result of {!advance}. *)
type step =
  | Advanced  (** the clock moved to the next completion *)
  | Deadlock  (** nothing in flight and no actor can start *)
  | Budget_exhausted  (** [max_firings] reached (e.g. a zero-time cycle) *)

val advance : engine -> step
(** Process all completions and starts at the current instant, then move the
    clock to the earliest pending completion. *)

val now : engine -> int
val total_firings : engine -> int

val completions : engine -> int array
(** Per-actor count of completed firings. *)

val iterations_completed : engine -> int
(** Whole graph iterations completed: [min_a completions(a) / q(a)].
    @raise Invalid_argument if the graph is inconsistent. *)

val is_consistent : engine -> bool
(** Whether the graph has a repetition vector, i.e. whether
    {!iterations_completed} is defined. *)

val channel_tokens : engine -> int array
(** Current token count per channel id. *)

val iter_starved : engine -> (Graph.channel_id -> unit) -> unit
(** [iter_starved eng f] calls [f] on every input channel that lacks
    tokens for an actor allowed to start next (the head of an idle
    resource's static order, or an unbound actor below its
    auto-concurrency limit). Called after each {!advance}, it is the
    blame signal buffer sizing uses to pick the channel to grow; the
    engine itself keeps no such counts, so the step loop does not pay
    for them. *)

val state_key : engine -> string
(** Canonical encoding of the full execution state. Two equal keys at
    clock-advance points imply identical future behaviour; this is the
    recurrence test used by throughput analysis. Only meaningful right
    after {!advance} returned [Advanced] or at time 0 before any step.

    The key is binary and only compares keys of one engine: one unsigned
    LEB128 varint per channel's token count; per actor, the number of
    firings in flight, then their remaining times relative to the clock
    (the engine keeps each actor's completion times in descending order,
    so no sorting happens here); per resource, its static-order position
    and a busy byte. Varints are prefix-free and the channel, actor and
    resource counts are fixed by the graph and options, so the encoding
    is injective: two keys are equal exactly when the states are. It is
    written into a domain-local scratch buffer; the returned string is
    the only allocation. *)

val options_key : options -> string option
(** Canonical serialization of the option fields that influence an
    analysis result (auto-concurrency, firing budget, resource static
    orders — resource {e names} are excluded, they carry no
    semantics), or [None] when the options embed closures
    ([firing_time]/[on_event]) and the run therefore cannot be keyed
    for memoization. *)

(** {1 One-shot runs} *)

type outcome = {
  stop : stop_reason;
  end_time : int;
  iterations : int;
  iteration_end_times : int array;
      (** completion time of each whole iteration, oldest first *)
  final_tokens : int array;
  firings : int;
}

and stop_reason = Finished | Deadlocked | Out_of_budget

val run : ?options:options -> Graph.t -> iterations:int -> outcome
(** Execute until the given number of complete graph iterations. *)

val deadlock_free : ?options:options -> Graph.t -> bool
(** True when one full iteration executes to completion. For consistent
    graphs this is the standard SDF deadlock test. *)
