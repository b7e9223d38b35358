(* Raw integer samples and exact percentiles over them.

   Percentiles use the nearest-rank definition on the sorted samples: the
   p-th percentile of n samples is the value at 1-based rank
   ceil(p * n / 100), so it is always an observed sample and never exceeds
   the maximum.  A percentile is published only when at least [min_beyond]
   samples lie strictly above its rank; with fewer, the tail is a handful
   of outliers and the figure would not repeat. *)

type t = { mutable data : int array; mutable len : int }

let min_beyond = 10
let create () = { data = Array.make 1024 0; len = 0 }
let length t = t.len

let add t v =
  if t.len = Array.length t.data then begin
    let d = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 d 0 t.len;
    t.data <- d
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let append dst src =
  for i = 0 to src.len - 1 do
    add dst src.data.(i)
  done

let sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.sort compare a;
  a

(* 1-based nearest rank of the [num/den] quantile among [n] samples, in
   integer arithmetic so p99 of 1000 samples is rank 990 exactly *)
let rank ~n ~num ~den = max 1 (((num * n) + den - 1) / den)
let beyond ~n ~num ~den = n - rank ~n ~num ~den

let quantile sorted ~num ~den =
  let n = Array.length sorted in
  if n = 0 || beyond ~n ~num ~den < min_beyond then None
  else Some sorted.(rank ~n ~num ~den - 1)

type summary = {
  n : int;
  min : int;
  p50 : int option;
  p99 : int option;
  max : int;
  mean : float;
}

let summarize t =
  let s = sorted t in
  let n = Array.length s in
  if n = 0 then None
  else
    let total = Array.fold_left ( + ) 0 s in
    Some
      {
        n;
        min = s.(0);
        p50 = quantile s ~num:1 ~den:2;
        p99 = quantile s ~num:99 ~den:100;
        max = s.(n - 1);
        mean = float_of_int total /. float_of_int n;
      }

(* The exact [num/den] quantile of each consecutive [size]-sample window
   of each [t], in arrival order; a trailing partial window is left out.
   [size] must leave [min_beyond] samples above the quantile. *)
let window_quantiles ts ~size ~num ~den =
  List.concat_map
    (fun t ->
      List.init (t.len / size) (fun k ->
          let a = Array.sub t.data (k * size) size in
          Array.sort compare a;
          Option.get (quantile a ~num ~den)))
    ts

(* The median of a few repeated measurements (set-up times, ladder
   batches): the middle value, or the mean of the two middle ones. *)
let median_float xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Samples.median_float: empty"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
