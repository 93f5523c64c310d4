type resource_binding = {
  resource_name : string;
  static_order : Graph.actor_id array;
}

type options = {
  auto_concurrency : int option;
  resources : resource_binding list;
  firing_time : (Graph.actor -> int) option;
  max_firings : int;
  on_event : (int -> event -> unit) option;
}

and event = Fire_start of Graph.actor_id | Fire_end of Graph.actor_id

let default_options =
  {
    auto_concurrency = Some 1;
    resources = [];
    firing_time = None;
    max_firings = 10_000_000;
    on_event = None;
  }

type resource_state = {
  order : Graph.actor_id array;
  mutable position : int;
  mutable busy : bool;
}

type engine = {
  graph : Graph.t;
  options : options;
  (* static views of the graph, indexed by actor id *)
  actor_info : Graph.actor array;
  inputs : (int * int) array array;  (* (channel id, consumption rate) *)
  outputs : (int * int) array array;  (* (channel id, production rate) *)
  repetition : int array option;  (* None when the graph is inconsistent *)
  resource_of : int array;  (* resource index or -1 *)
  resource_states : resource_state array;
  (* dynamic state *)
  tokens : int array;
  inflight : int array;  (* per actor, number of firings in progress *)
  remaining : int list array;
      (* per actor, absolute completion times, kept in descending order *)
  pending : Graph.actor_id Heap.t;  (* firings in flight by completion time *)
  completion_counts : int array;
  mutable clock : int;
  mutable firings_so_far : int;
  mutable initialized : bool;
}

type step = Advanced | Deadlock | Budget_exhausted

exception Quiescent
exception Budget

let create ?(options = default_options) g =
  let n = Graph.actor_count g in
  let actor_info = Array.init n (Graph.actor g) in
  let inputs = Array.make n [||] and outputs = Array.make n [||] in
  for a = 0 to n - 1 do
    inputs.(a) <-
      Graph.incoming g a
      |> List.map (fun (c : Graph.channel) ->
             (c.channel_id, c.consumption_rate))
      |> Array.of_list;
    outputs.(a) <-
      Graph.outgoing g a
      |> List.map (fun (c : Graph.channel) -> (c.channel_id, c.production_rate))
      |> Array.of_list
  done;
  let resource_of = Array.make n (-1) in
  let resource_states =
    Array.of_list
      (List.map
         (fun b -> { order = Array.copy b.static_order; position = 0; busy = false })
         options.resources)
  in
  List.iteri
    (fun i b ->
      Array.iter
        (fun a ->
          if a < 0 || a >= n then
            invalid_arg
              (Printf.sprintf "Execution.create: resource %S orders unknown actor %d"
                 b.resource_name a);
          if resource_of.(a) <> -1 && resource_of.(a) <> i then
            invalid_arg
              (Printf.sprintf
                 "Execution.create: actor %d bound to two resources" a);
          resource_of.(a) <- i)
        b.static_order)
    options.resources;
  let tokens = Array.make (Graph.channel_count g) 0 in
  List.iter
    (fun (c : Graph.channel) -> tokens.(c.channel_id) <- c.initial_tokens)
    (Graph.channels g);
  let repetition =
    match Repetition.compute g with
    | Repetition.Consistent q -> Some q
    | _ -> None
  in
  {
    graph = g;
    options;
    actor_info;
    inputs;
    outputs;
    repetition;
    resource_of;
    resource_states;
    tokens;
    inflight = Array.make n 0;
    remaining = Array.make n [];
    pending = Heap.create ();
    completion_counts = Array.make n 0;
    clock = 0;
    firings_so_far = 0;
    initialized = false;
  }

let ready eng a =
  let inputs = eng.inputs.(a) in
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length inputs do
    let ch, rate = inputs.(!i) in
    if eng.tokens.(ch) < rate then ok := false;
    incr i
  done;
  !ok

let firing_duration eng a =
  match eng.options.firing_time with
  | Some f -> f eng.actor_info.(a)
  | None -> eng.actor_info.(a).execution_time

let emit eng ev =
  match eng.options.on_event with
  | Some f -> f eng.clock ev
  | None -> ()

(* A firing started later usually finishes later, so the new time almost
   always goes in front. *)
let rec insert_descending t = function
  | x :: rest when x > t -> x :: insert_descending t rest
  | times -> t :: times

let rec drop_once t = function
  | [] -> []
  | x :: rest when x = t -> rest
  | x :: rest -> x :: drop_once t rest

let start_firing eng a =
  if eng.firings_so_far >= eng.options.max_firings then raise Budget;
  eng.firings_so_far <- eng.firings_so_far + 1;
  let inputs = eng.inputs.(a) in
  for i = 0 to Array.length inputs - 1 do
    let ch, rate = inputs.(i) in
    eng.tokens.(ch) <- eng.tokens.(ch) - rate
  done;
  eng.inflight.(a) <- eng.inflight.(a) + 1;
  let r = eng.resource_of.(a) in
  if r >= 0 then eng.resource_states.(r).busy <- true;
  let finish = eng.clock + Stdlib.max 0 (firing_duration eng a) in
  eng.remaining.(a) <- insert_descending finish eng.remaining.(a);
  Heap.add eng.pending ~key:finish a;
  emit eng (Fire_start a)

let complete_firing eng a =
  let outputs = eng.outputs.(a) in
  for i = 0 to Array.length outputs - 1 do
    let ch, rate = outputs.(i) in
    eng.tokens.(ch) <- eng.tokens.(ch) + rate
  done;
  eng.inflight.(a) <- eng.inflight.(a) - 1;
  eng.completion_counts.(a) <- eng.completion_counts.(a) + 1;
  eng.remaining.(a) <- drop_once eng.clock eng.remaining.(a);
  if eng.resource_of.(a) >= 0 then begin
    let r = eng.resource_states.(eng.resource_of.(a)) in
    r.busy <- false;
    r.position <- (r.position + 1) mod Array.length r.order
  end;
  emit eng (Fire_end a)

let completion_due eng =
  (not (Heap.is_empty eng.pending)) && Heap.top_key eng.pending = eng.clock

(* Process every completion scheduled at the current instant. *)
let drain_completions eng =
  while completion_due eng do
    complete_firing eng (Heap.pop_value eng.pending)
  done

let concurrency_limit eng =
  match eng.options.auto_concurrency with Some k -> k | None -> max_int

(* The actor a resource would start next, or -1 while it is busy. *)
let resource_head r =
  if r.busy || Array.length r.order = 0 then -1 else r.order.(r.position)

(* One pass trying to start firings; returns how many were started. *)
let start_pass eng =
  let started = ref 0 in
  (* resource-bound actors: strict static order, one firing at a time *)
  for i = 0 to Array.length eng.resource_states - 1 do
    let a = resource_head eng.resource_states.(i) in
    if a >= 0 && ready eng a then begin
      start_firing eng a;
      incr started
    end
  done;
  (* unbound actors: limited only by auto-concurrency *)
  let limit = concurrency_limit eng in
  for a = 0 to Array.length eng.actor_info - 1 do
    if eng.resource_of.(a) = -1 then
      while eng.inflight.(a) < limit && ready eng a do
        start_firing eng a;
        incr started
      done
  done;
  !started

(* Alternate completions and starts until the instant is exhausted: starting
   a zero-duration firing schedules a completion at the current clock, which
   may enable further starts. *)
let rec fixpoint eng =
  drain_completions eng;
  let started = start_pass eng in
  if started > 0 || completion_due eng then fixpoint eng

let advance eng =
  try
    if not eng.initialized then begin
      eng.initialized <- true;
      fixpoint eng
    end
    else if Heap.is_empty eng.pending then raise Quiescent
    else begin
      eng.clock <- Heap.top_key eng.pending;
      fixpoint eng
    end;
    if Heap.is_empty eng.pending then Deadlock else Advanced
  with
  | Quiescent -> Deadlock
  | Budget -> Budget_exhausted

let now eng = eng.clock
let total_firings eng = eng.firings_so_far
let completions eng = Array.copy eng.completion_counts

let iterations_completed eng =
  match eng.repetition with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Execution.iterations_completed: graph %S is inconsistent"
           (Graph.name eng.graph))
  | Some q ->
      let iterations = ref max_int in
      for a = 0 to Array.length q - 1 do
        let qa = q.(a) in
        if qa > 0 then
          iterations := Stdlib.min !iterations (eng.completion_counts.(a) / qa)
      done;
      if !iterations = max_int then 0 else !iterations

let is_consistent eng = Option.is_some eng.repetition
let channel_tokens eng = Array.copy eng.tokens

let iter_starved eng f =
  let blame a =
    if a >= 0 && not (ready eng a) then
      Array.iter (fun (ch, rate) -> if eng.tokens.(ch) < rate then f ch) eng.inputs.(a)
  in
  Array.iter (fun r -> blame (resource_head r)) eng.resource_states;
  let limit = concurrency_limit eng in
  for a = 0 to Array.length eng.actor_info - 1 do
    if eng.resource_of.(a) = -1 && eng.inflight.(a) < limit then blame a
  done

(* One reusable key buffer per domain: [state_key] runs once per
   simulation step, and a fresh [Buffer.create] each step is the
   dominant minor-heap churn of the whole analysis — multiplied across
   pool domains it multiplies the stop-the-world minor collections. *)
let key_scratch = Exec.Scratch.slot (fun () -> Buffer.create 256)

(* Unsigned LEB128 over the int's bit pattern: seven bits a byte, high bit
   set on every byte but the last. Prefix-free, so a sequence of varints
   decodes uniquely. *)
let rec add_varint b n =
  if n land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr n)
  else begin
    Buffer.add_char b (Char.unsafe_chr (n land 0x7f lor 0x80));
    add_varint b (n lsr 7)
  end

let rec add_relative b clock = function
  | [] -> ()
  | t :: rest ->
      add_varint b (t - clock);
      add_relative b clock rest

let state_key eng =
  Exec.Scratch.borrow key_scratch ~reset:Buffer.clear @@ fun b ->
  for ch = 0 to Array.length eng.tokens - 1 do
    add_varint b eng.tokens.(ch)
  done;
  for a = 0 to Array.length eng.remaining - 1 do
    add_varint b eng.inflight.(a);
    add_relative b eng.clock eng.remaining.(a)
  done;
  for i = 0 to Array.length eng.resource_states - 1 do
    let r = eng.resource_states.(i) in
    add_varint b r.position;
    Buffer.add_char b (if r.busy then '\001' else '\000')
  done;
  Buffer.contents b

type outcome = {
  stop : stop_reason;
  end_time : int;
  iterations : int;
  iteration_end_times : int array;
  final_tokens : int array;
  firings : int;
}

and stop_reason = Finished | Deadlocked | Out_of_budget

let run ?(options = default_options) g ~iterations =
  let eng = create ~options g in
  let ends = ref [] in
  let recorded = ref 0 in
  let record_new_iterations () =
    let done_now = iterations_completed eng in
    while !recorded < done_now do
      ends := eng.clock :: !ends;
      incr recorded
    done
  in
  let rec loop () =
    if !recorded >= iterations then Finished
    else
      match advance eng with
      | Advanced ->
          record_new_iterations ();
          loop ()
      | Deadlock ->
          record_new_iterations ();
          if !recorded >= iterations then Finished else Deadlocked
      | Budget_exhausted -> Out_of_budget
  in
  let stop = loop () in
  let all_ends = Array.of_list (List.rev !ends) in
  let kept = Stdlib.min iterations (Array.length all_ends) in
  {
    stop;
    end_time =
      (if kept > 0 && stop = Finished then all_ends.(kept - 1) else eng.clock);
    iterations = !recorded;
    iteration_end_times = Array.sub all_ends 0 kept;
    final_tokens = channel_tokens eng;
    firings = eng.firings_so_far;
  }

let deadlock_free ?(options = default_options) g =
  match (run ~options g ~iterations:1).stop with
  | Finished -> true
  | Deadlocked | Out_of_budget -> false

(* Canonical serialization of the options fields that influence a
   memoizable analysis. Resource names are excluded (binding semantics
   depend on static orders, not labels); [firing_time] and [on_event]
   are opaque closures, so their presence makes the run unkeyable. *)
let options_key o =
  match (o.firing_time, o.on_event) with
  | Some _, _ | _, Some _ -> None
  | None, None ->
      let b = Buffer.create 64 in
      Buffer.add_string b "opt1;ac:";
      (match o.auto_concurrency with
      | None -> Buffer.add_char b '*'
      | Some k -> Buffer.add_string b (string_of_int k));
      Buffer.add_string b ";mf:";
      Buffer.add_string b (string_of_int o.max_firings);
      Buffer.add_string b ";r:";
      List.iter
        (fun r ->
          Array.iter
            (fun a ->
              Buffer.add_string b (string_of_int a);
              Buffer.add_char b ',')
            r.static_order;
          Buffer.add_char b ';')
        o.resources;
      Some (Buffer.contents b)
