(* In-memory spans recorded by the benchmark around its calls into each
   layer of the flow, written out when the run ends: a Chrome trace
   (Perfetto, chrome://tracing) and per-name aggregates. Spans are only
   recorded in a traced run; untraced runs never call this module. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  op : int;  (** the operation the span belongs to *)
  replay : bool;  (** re-runs an inner stage outside its op span *)
  start : float;
  mutable stop : float;
  mutable args : (string * int) list;
}

let origin = Unix.gettimeofday ()
let finished : t list ref = ref []
let open_spans : t list ref = ref []
let next_id = ref 0
let current_op = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let begin_op () =
  incr current_op;
  !current_op

let add ?(replay = false) ?(args = []) ~op ~parent name ~start ~stop =
  let s = { id = fresh_id (); name; parent; op; replay; start; stop; args } in
  finished := s :: !finished;
  s.id

(* single-threaded nesting: the innermost open span is the parent *)
let record ?(replay = false) name f =
  let parent = match !open_spans with p :: _ -> p.id | [] -> -1 in
  let s =
    {
      id = fresh_id ();
      name;
      parent;
      op = !current_op;
      replay;
      start = Unix.gettimeofday ();
      stop = 0.;
      args = [];
    }
  in
  open_spans := s :: !open_spans;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- Unix.gettimeofday ();
      open_spans := List.tl !open_spans;
      finished := s :: !finished)
    f

(* attach a count to the innermost open span *)
let annotate key value =
  match !open_spans with s :: _ -> s.args <- (key, value) :: s.args | [] -> ()

let all () = List.rev !finished
let duration s = s.stop -. s.start
let named name = List.filter (fun s -> s.name = name) (all ())
let busy name = List.fold_left (fun acc s -> acc +. duration s) 0. (named name)

let durations_ms name =
  Array.of_list (List.map (fun s -> 1000. *. duration s) (named name))

let arg s key = Option.value ~default:0 (List.assoc_opt key s.args)
let sum_arg name key = List.fold_left (fun acc s -> acc + arg s key) 0 (named name)

(* a span's duration minus the time its children cover; children of one
   span never overlap because spans nest on a single thread *)
let self_time name =
  let spans = all () in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace children s.parent
        (duration s +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    spans;
  List.fold_left
    (fun acc s ->
      if s.name = name then
        acc +. duration s
        -. Option.value ~default:0. (Hashtbl.find_opt children s.id)
      else acc)
    0. spans

let to_chrome_json () =
  let module J = Jsonkit.Json in
  let us t = J.Float (1e6 *. (t -. origin)) in
  let event s =
    J.Obj
      [
        ("name", J.String s.name);
        ("ph", J.String "X");
        ("ts", us s.start);
        ("dur", J.Float (1e6 *. duration s));
        ("pid", J.Int 1);
        (* replays get their own track so they never nest under an op *)
        ("tid", J.Int (if s.replay then 2 else 1));
        ( "args",
          J.Obj
            ([ ("id", J.Int s.id); ("parent", J.Int s.parent); ("op", J.Int s.op) ]
            @ List.rev_map (fun (k, v) -> (k, J.Int v)) s.args) );
      ]
  in
  let thread tid label =
    J.Obj
      [
        ("name", J.String "thread_name");
        ("ph", J.String "M");
        ("pid", J.Int 1);
        ("tid", J.Int tid);
        ("args", J.Obj [ ("name", J.String label) ]);
      ]
  in
  J.to_string
    (J.Obj
       [
         ( "traceEvents",
           J.List (thread 1 "ops" :: thread 2 "replays" :: List.map event (all ()))
         );
         ("displayTimeUnit", J.String "ms");
       ])

(* count, busy, self and median time of every span name *)
let per_name_json () =
  let module J = Jsonkit.Json in
  let names = List.sort_uniq compare (List.map (fun s -> s.name) (all ())) in
  J.Obj
    (List.map
       (fun name ->
         let d = durations_ms name in
         ( name,
           J.Obj
             [
               ("count", J.Int (Array.length d));
               ("busy_s", J.Float (busy name));
               ("self_s", J.Float (self_time name));
               ("p50_ms", J.Float (Suite_stats.Stats.quantile d 0.5));
             ] ))
       names)
