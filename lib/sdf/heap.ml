(* Entries carry an insertion sequence number so that equal keys pop in
   insertion order; timed executions stay deterministic that way. The
   entries live in three parallel arrays, so adding and removing one
   allocates nothing once the arrays have grown. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0 }
let is_empty h = h.size = 0
let length h = h.size

let less h i j =
  h.keys.(i) < h.keys.(j) || (h.keys.(i) = h.keys.(j) && h.seqs.(i) < h.seqs.(j))

let swap h i j =
  let k = h.keys.(i) and s = h.seqs.(i) and v = h.values.(i) in
  h.keys.(i) <- h.keys.(j);
  h.seqs.(i) <- h.seqs.(j);
  h.values.(i) <- h.values.(j);
  h.keys.(j) <- k;
  h.seqs.(j) <- s;
  h.values.(j) <- v

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.size && less h left !smallest then smallest := left;
  if right < h.size && less h right !smallest then smallest := right;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let grow h filler =
  let capacity = Stdlib.max 16 (2 * h.size) in
  let extend a fill =
    let a' = Array.make capacity fill in
    Array.blit a 0 a' 0 h.size;
    a'
  in
  h.keys <- extend h.keys 0;
  h.seqs <- extend h.seqs 0;
  h.values <- extend h.values filler

let add h ~key value =
  if h.size = Array.length h.keys then grow h value;
  let i = h.size in
  h.keys.(i) <- key;
  h.seqs.(i) <- h.next_seq;
  h.values.(i) <- value;
  h.next_seq <- h.next_seq + 1;
  h.size <- i + 1;
  sift_up h i

let min_key h = if h.size = 0 then None else Some h.keys.(0)

let top_key h =
  if h.size = 0 then invalid_arg "Heap.top_key: empty heap";
  h.keys.(0)

let pop_value h =
  if h.size = 0 then invalid_arg "Heap.pop_value: empty heap";
  let top = h.values.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    let last = h.size in
    h.keys.(0) <- h.keys.(last);
    h.seqs.(0) <- h.seqs.(last);
    h.values.(0) <- h.values.(last);
    sift_down h 0
  end;
  top

let pop h =
  if h.size = 0 then None
  else
    let key = h.keys.(0) in
    Some (key, pop_value h)

let clear h =
  h.keys <- [||];
  h.seqs <- [||];
  h.values <- [||];
  h.size <- 0
