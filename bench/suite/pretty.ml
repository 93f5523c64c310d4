(* Diff-friendly JSON documents: one top-level field per line, and arrays
   one element per line, so committed references and history entries
   review line by line. *)

module J = Jsonkit.Json

let document fields =
  let b = Buffer.create 4096 in
  let last_field = List.length fields - 1 in
  Buffer.add_string b "{\n";
  List.iteri
    (fun i (key, value) ->
      Buffer.add_string b ("  " ^ J.quote key ^ ": ");
      (match value with
      | J.List (_ :: _ as items) ->
          let last = List.length items - 1 in
          Buffer.add_string b "[\n";
          List.iteri
            (fun j item ->
              Buffer.add_string b ("    " ^ J.to_string item);
              Buffer.add_string b (if j < last then ",\n" else "\n"))
            items;
          Buffer.add_string b "  ]"
      | v -> Buffer.add_string b (J.to_string v));
      Buffer.add_string b (if i < last_field then ",\n" else "\n"))
    fields;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* every digit of a measured value; +infinity (a failed op) as 1e999, the
   JSON literal that parses back to infinity *)
let number x =
  if Float.is_nan x then "null"
  else if x = Float.infinity then "1e999"
  else if x = Float.neg_infinity then "-1e999"
  else Printf.sprintf "%.17g" x
