(* Array-backed binary min-heap over (key, id).  Each element records its
   own array index, so removal by handle needs no search: the last
   element takes the hole and sifts up or down from there. *)

type 'a elt = {
  mutable key : int;
  id : int;
  mutable pos : int;  (** index in [arr]; -1 while out of the heap *)
  value : 'a;
}

type 'a t = {
  mutable arr : 'a elt array;  (** heap-ordered prefix [0, len) *)
  mutable len : int;
  mutable next_id : int;
  mutable peak : int;
}

let create () = { arr = [||]; len = 0; next_id = 1; peak = 0 }
let key e = e.key
let id e = e.id
let value e = e.value
let length h = h.len
let peak_length h = h.peak
let min_key h = if h.len = 0 then max_int else h.arr.(0).key
let lt a b = a.key < b.key || (a.key = b.key && a.id < b.id)

let place h i e =
  h.arr.(i) <- e;
  e.pos <- i

(* Move [e] from the hole at [i] toward the root, or toward the leaves,
   until its parent is earlier and its children later. *)
let rec sift_up h i e =
  let p = (i - 1) / 2 in
  if i > 0 && lt e h.arr.(p) then begin
    place h i h.arr.(p);
    sift_up h p e
  end
  else place h i e

let rec sift_down h i e =
  let l = (2 * i) + 1 in
  if l >= h.len then place h i e
  else
    let c = if l + 1 < h.len && lt h.arr.(l + 1) h.arr.(l) then l + 1 else l in
    if lt h.arr.(c) e then begin
      place h i h.arr.(c);
      sift_down h c e
    end
    else place h i e

let insert h e =
  let n = h.len in
  if n = Array.length h.arr then begin
    let arr = Array.make (max 8 (2 * n)) e in
    Array.blit h.arr 0 arr 0 n;
    h.arr <- arr
  end;
  h.len <- n + 1;
  if h.len > h.peak then h.peak <- h.len;
  sift_up h n e

let push h ~key value =
  let e = { key; id = h.next_id; pos = -1; value } in
  h.next_id <- h.next_id + 1;
  insert h e;
  e

let reinsert h e ~key =
  if e.pos >= 0 then invalid_arg "Timer_heap.reinsert: element in the heap";
  e.key <- key;
  insert h e

let remove h e =
  e.pos >= 0
  && begin
       let i = e.pos and n = h.len - 1 in
       e.pos <- -1;
       h.len <- n;
       (if i < n then
          let last = h.arr.(n) in
          if i > 0 && lt last h.arr.((i - 1) / 2) then sift_up h i last
          else sift_down h i last);
       true
     end

let top h = if h.len = 0 then invalid_arg "Timer_heap.top" else h.arr.(0)

let pop h =
  let e = top h in
  ignore (remove h e : bool);
  e
