(* The state-space throughput kernel: outputs pinned to a committed table,
   the binary state key against a decimal reference encoding, and the typed
   result on inconsistent graphs. *)

open Sdf

let starts_with prefix s = String.starts_with ~prefix s
let ends_with suffix s = String.ends_with ~suffix s

(* --- pinned outputs --------------------------------------------------------- *)

let check_pinned ~expected actual =
  Alcotest.(check (list string))
    "labels" (List.map fst expected) (List.map fst actual);
  List.iter2
    (fun (label, e) (_, a) -> Alcotest.(check string) label e a)
    expected actual

let pinned prefix compute () =
  let expected =
    List.filter (fun (l, _) -> starts_with prefix l) Pinned_results.throughput
  in
  check_pinned ~expected (compute ())

let test_pinned_buffers () =
  check_pinned ~expected:Pinned_results.buffers (Pin_cases.buffers ())

(* The table reaches what it is meant to pin: every result constructor with
   its payload, both platforms, and both exits of the buffer-growth
   heuristic's blame run — a bounded graph that deadlocks at its lower
   bounds (the run stops on [Deadlock]) and growth over several rounds
   (it runs on [Advanced] steps). *)
let test_pinned_coverage () =
  let count p table = List.length (List.filter (fun (l, v) -> p l v) table) in
  let at_least n what k =
    Alcotest.(check bool) (Printf.sprintf "%s: %d >= %d" what k n) true (k >= n)
  in
  let t = Pinned_results.throughput in
  at_least 10 "mjpeg-dse points" (count (fun l _ -> starts_with "mjpeg-dse" l) t);
  List.iter
    (fun ic ->
      at_least 50 ("synth on " ^ ic)
        (count
           (fun l v ->
             starts_with "synth" l && ends_with ic l && starts_with "throughput" v)
           t))
    [ "fsl"; "noc" ];
  at_least 1 "deadlock after time 0"
    (count
       (fun _ v ->
         starts_with "deadlock at t=" v && not (starts_with "deadlock at t=0 " v))
       t);
  at_least 1 "step budget"
    (count (fun l v -> ends_with "max-steps" l && starts_with "step budget" v) t);
  at_least 1 "firing budget"
    (count (fun l v -> ends_with "max-firings" l && starts_with "step budget" v) t);
  let buffer_seeds = List.length Pinned_results.buffers / 6 in
  at_least 1 "buffer inputs deadlocking at their lower bounds"
    (count
       (fun l v ->
         starts_with "engine" l && ends_with "lower-bound" l
         && starts_with "deadlock" v
         && Scanf.sscanf l "engine %d" (fun seed -> seed <= buffer_seeds))
       t);
  at_least 1 "sizing searches growing a buffer"
    (count
       (fun _ v ->
         starts_with "capacities" v
         && Scanf.sscanf v "capacities [%s@] evaluations %d" (fun _ e -> e > 1))
       Pinned_results.buffers)

(* --- the state key ------------------------------------------------------------ *)

(* The decimal encoding the binary key replaced, rebuilt from the engine's
   public event trace rather than from its internals: channel tokens, per
   actor the sorted remaining times of its firings in flight, per resource
   the static-order position and whether it is busy. *)
type shadow = {
  graph : Graph.t;
  finishing : int list array;
  resource_of : int array;
  orders : int array array;
  position : int array;
  busy : bool array;
}

let shadow g (options : Execution.options) =
  let resource_of = Array.make (Graph.actor_count g) (-1) in
  List.iteri
    (fun i (r : Execution.resource_binding) ->
      Array.iter (fun a -> resource_of.(a) <- i) r.static_order)
    options.resources;
  let n = List.length options.resources in
  {
    graph = g;
    finishing = Array.make (Graph.actor_count g) [];
    resource_of;
    orders =
      Array.of_list
        (List.map
           (fun (r : Execution.resource_binding) -> r.static_order)
           options.resources);
    position = Array.make n 0;
    busy = Array.make n false;
  }

let observe s time = function
  | Execution.Fire_start a ->
      let wcet = (Graph.actor s.graph a).execution_time in
      s.finishing.(a) <- (time + wcet) :: s.finishing.(a);
      if s.resource_of.(a) >= 0 then s.busy.(s.resource_of.(a)) <- true
  | Execution.Fire_end a ->
      let rec drop = function
        | [] -> []
        | t :: rest when t = time -> rest
        | t :: rest -> t :: drop rest
      in
      s.finishing.(a) <- drop s.finishing.(a);
      let r = s.resource_of.(a) in
      if r >= 0 then begin
        s.busy.(r) <- false;
        s.position.(r) <- (s.position.(r) + 1) mod Array.length s.orders.(r)
      end

let decimal_key s eng =
  let b = Buffer.create 64 in
  let num n sep =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b sep
  in
  Array.iter (fun t -> num t ',') (Execution.channel_tokens eng);
  Buffer.add_char b '|';
  Array.iter
    (fun times ->
      List.iter
        (fun t -> num (t - Execution.now eng) ',')
        (List.sort compare times);
      Buffer.add_char b ';')
    s.finishing;
  Buffer.add_char b '|';
  Array.iteri (fun r p -> num p (if s.busy.(r) then '!' else '.')) s.position;
  Buffer.contents b

(* A static order that cannot deadlock: the even actors' firings in the
   order one self-timed iteration starts them (executing the whole start
   order one firing at a time is a valid schedule, so its restriction to
   one resource is too). On odd seeds the order is spelled out for two
   iterations, so equal graph states recur at different positions, which
   the key must tell apart. *)
let even_actors_order seed g repetition =
  let taken = Array.make (Graph.actor_count g) 0 and starts = ref [] in
  let on_event _ = function
    | Execution.Fire_start a when a mod 2 = 0 && taken.(a) < repetition.(a) ->
        taken.(a) <- taken.(a) + 1;
        starts := a :: !starts
    | _ -> ()
  in
  let options = { Execution.default_options with on_event = Some on_event } in
  ignore (Execution.run ~options g ~iterations:1);
  let order = Array.of_list (List.rev !starts) in
  {
    Execution.resource_name = "pe";
    static_order = (if seed mod 2 = 0 then order else Array.append order order);
  }

(* A seeded bounded graph and options that put several firings of an actor
   in flight: auto-concurrency 2 or 3, unbounded auto-concurrency, or a
   static order for the even actors with the odd ones at auto-concurrency
   2. *)
let key_case (seed, mode) =
  let w = Pin_cases.workload seed in
  let g = Pin_cases.bounded ~scale:(2 + (seed mod 2)) w.Gen.Workload.graph in
  let d = Execution.default_options in
  let options =
    match mode with
    | 0 -> { d with auto_concurrency = Some (2 + (seed mod 2)) }
    | 1 -> { d with auto_concurrency = None; max_firings = 20_000 }
    | _ ->
        let order = even_actors_order seed g w.Gen.Workload.repetition in
        { d with resources = [ order ]; auto_concurrency = Some 2 }
  in
  (g, options)

(* Walk past the first recurrence, so equal states come up again and
   again; the two keys must partition the visited states identically. *)
let keys_agree case =
  let g, options = key_case case in
  let s = shadow g options in
  let eng =
    Execution.create ~options:{ options with on_event = Some (observe s) } g
  in
  let first_binary = Hashtbl.create 64 and first_decimal = Hashtbl.create 64 in
  let first tbl key i =
    match Hashtbl.find_opt tbl key with
    | Some j -> j
    | None ->
        Hashtbl.add tbl key i;
        i
  in
  let rec walk i =
    i = 400
    ||
    first first_binary (Execution.state_key eng) i
    = first first_decimal (decimal_key s eng) i
    &&
    match Execution.advance eng with
    | Execution.Advanced -> walk (i + 1)
    | Execution.Deadlock | Execution.Budget_exhausted -> true
  in
  walk 0

let key_property =
  QCheck.Test.make ~count:300 ~name:"binary key equality is decimal key equality"
    QCheck.(pair (int_range 1 100_000) (int_range 0 2))
    keys_agree

(* The property is not vacuous: fixed cases revisit states, with an actor
   holding several firings in flight. *)
let test_keys_recur () =
  let recurring = ref 0 and several_in_flight = ref false in
  for seed = 1 to 30 do
    for mode = 0 to 2 do
      let g, options = key_case (seed, mode) in
      let live = Array.make (Graph.actor_count g) 0 in
      let on_event _ = function
        | Execution.Fire_start a ->
            live.(a) <- live.(a) + 1;
            if live.(a) > 1 then several_in_flight := true
        | Execution.Fire_end a -> live.(a) <- live.(a) - 1
      in
      let eng =
        Execution.create ~options:{ options with on_event = Some on_event } g
      in
      let seen = Hashtbl.create 64 in
      let rec walk i =
        if i < 400 then begin
          let key = Execution.state_key eng in
          if Hashtbl.mem seen key then incr recurring
          else Hashtbl.add seen key ();
          match Execution.advance eng with
          | Execution.Advanced -> walk (i + 1)
          | Execution.Deadlock | Execution.Budget_exhausted -> ()
        end
      in
      walk 0
    done
  done;
  Alcotest.(check bool) "some states recur" true (!recurring > 0);
  Alcotest.(check bool)
    "an actor has several firings in flight" true !several_in_flight

(* --- inconsistent graphs ------------------------------------------------------ *)

(* a -> b at rates 2:1, b -> a at 1:1 with one token: no repetition vector *)
let inconsistent () =
  let g = Graph.empty "inconsistent" in
  let g, a = Graph.add_actor g ~name:"a" ~execution_time:3 in
  let g, b = Graph.add_actor g ~name:"b" ~execution_time:2 in
  let g, _ =
    Graph.add_channel g ~name:"ab" ~source:a ~production_rate:2 ~target:b
      ~consumption_rate:1 ()
  in
  let g, _ =
    Graph.add_channel g ~name:"ba" ~source:b ~production_rate:1 ~target:a
      ~consumption_rate:1 ~initial_tokens:1 ()
  in
  g

let result = Alcotest.testable Throughput.pp_result ( = )
let no_verdict = Throughput.Budget_exhausted { steps = 0 }

let test_inconsistent_analyse () =
  let g = inconsistent () in
  List.iter
    (fun (name, method_) ->
      Alcotest.check result name no_verdict (Throughput.analyse ~method_ g))
    [ ("state space", `State_space); ("auto", `Auto); ("mcm", `Mcm) ]

let test_inconsistent_memo () =
  let g = inconsistent () in
  List.iter
    (fun (name, method_) ->
      let analyse () = Throughput.analyse_memo ~method_ g in
      Alcotest.check result (name ^ " cold") no_verdict (analyse ());
      Alcotest.check result (name ^ " warm") no_verdict (analyse ()))
    [ ("state space", `State_space); ("auto", `Auto) ]

let () =
  Alcotest.run "state_space"
    [
      ( "pinned",
        [
          Alcotest.test_case "mjpeg dse final rounds" `Quick
            (pinned "mjpeg-dse" Pin_cases.mjpeg_dse);
          Alcotest.test_case "synth flows fsl and noc" `Quick
            (pinned "synth" Pin_cases.synth_flows);
          Alcotest.test_case "engine variants" `Quick
            (pinned "engine" Pin_cases.engine_variants);
          Alcotest.test_case "buffer sizing" `Quick test_pinned_buffers;
          Alcotest.test_case "coverage" `Quick test_pinned_coverage;
        ] );
      ( "state key",
        [ Alcotest.test_case "recurrence and concurrency" `Quick test_keys_recur ]
        @ List.map QCheck_alcotest.to_alcotest [ key_property ] );
      ( "inconsistent",
        [
          Alcotest.test_case "analyse" `Quick test_inconsistent_analyse;
          Alcotest.test_case "analyse_memo" `Quick test_inconsistent_memo;
        ] );
    ]
