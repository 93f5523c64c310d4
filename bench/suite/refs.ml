(* Committed reference results under bench/suite/reference/ and the
   figure-6 CSVs they are cross-checked against. Paths are relative to the
   repository root, the directory the suite runs from. *)

module J = Jsonkit.Json

exception Operational of string

let fail fmt = Printf.ksprintf (fun s -> raise (Operational s)) fmt

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error _ -> ""

let dir = Filename.concat "bench" (Filename.concat "suite" "reference")
let path name = Filename.concat dir (name ^ ".json")

let load name =
  let p = path name in
  match J.of_string (read_file p) with
  | Ok doc -> doc
  | Error e -> fail "reference %s unreadable (%s); see bench/suite/README.md" p e

let save name ~produced_by fields =
  Out_channel.with_open_bin (path name) (fun oc ->
      output_string oc
        (Suite_stats.Pretty.document
           (("produced_by", J.String produced_by) :: fields)))

let member doc key =
  match J.member key doc with
  | Some v -> v
  | None -> fail "reference field %S missing" key

let int doc key =
  match J.to_int_opt (member doc key) with
  | Some n -> n
  | None -> fail "reference field %S is not an integer" key

let string doc key =
  match J.to_string_opt (member doc key) with
  | Some s -> s
  | None -> fail "reference field %S is not a string" key

let list doc key =
  match J.to_list_opt (member doc key) with
  | Some l -> l
  | None -> fail "reference field %S is not a list" key

let guarantee_string = function
  | None -> "none"
  | Some r -> Sdf.Rational.to_string r

let generator_json (c : Gen.Workload.config) =
  J.Obj
    [
      ("min_actors", J.Int c.min_actors);
      ("max_actors", J.Int c.max_actors);
      ("max_repetition", J.Int c.max_repetition);
      ("max_wcet", J.Int c.max_wcet);
      ("max_token_words", J.Int c.max_token_words);
      ("max_extra_edges", J.Int c.max_extra_edges);
      ("max_back_edges", J.Int c.max_back_edges);
    ]

(* a reference made with another generator configuration would check the
   wrong graphs *)
let check_generator doc config =
  if J.to_string (member doc "generator") <> J.to_string (generator_json config)
  then fail "reference generator settings differ from the suite's"

(* figure6a.csv / figure6b.csv: sequence -> (worst-case, measured) cells *)
let figure6 label =
  let file = Printf.sprintf "figure6%s.csv" label in
  match String.split_on_char '\n' (String.trim (read_file file)) with
  | [] | [ _ ] -> fail "%s missing or empty" file
  | _header :: rows ->
      List.map
        (fun row ->
          match String.split_on_char ',' row with
          | [ seq; worst; _expected; measured ] -> (seq, (worst, measured))
          | _ -> fail "%s: malformed row %S" file row)
        rows
