type t = {
  counts : int array;  (* index = position of the value's highest set bit + 1 *)
  mutable n : int;
  mutable sum : int;
  mutable max_v : int;
}

let n_buckets = 63

let create () = { counts = Array.make n_buckets 0; n = 0; sum = 0; max_v = 0 }

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      incr b;
      x := !x lsr 1
    done;
    min !b (n_buckets - 1)
  end

let add h v =
  let v = max 0 v in
  h.counts.(bucket_of v) <- h.counts.(bucket_of v) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum + v;
  if v > h.max_v then h.max_v <- v

let count h = h.n
let total h = h.sum
let max_value h = h.max_v

let merge_into dst src =
  for b = 0 to n_buckets - 1 do
    dst.counts.(b) <- dst.counts.(b) + src.counts.(b)
  done;
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum + src.sum;
  if src.max_v > dst.max_v then dst.max_v <- src.max_v
let mean h = if h.n = 0 then 0.0 else float_of_int h.sum /. float_of_int h.n

let bounds b = if b = 0 then (0, 1) else (1 lsl (b - 1), 1 lsl b)

let percentile h p =
  if h.n = 0 then 0
  else begin
    let target = p /. 100.0 *. float_of_int h.n in
    let acc = ref 0 and result = ref h.max_v and found = ref false in
    for b = 0 to n_buckets - 1 do
      if not !found then begin
        acc := !acc + h.counts.(b);
        if float_of_int !acc >= target && h.counts.(b) > 0 then begin
          result := min (snd (bounds b)) h.max_v;
          found := true
        end
      end
    done;
    !result
  end

let buckets h =
  let out = ref [] in
  for b = n_buckets - 1 downto 0 do
    if h.counts.(b) > 0 then
      let lo, hi = bounds b in
      out := (lo, hi, h.counts.(b)) :: !out
  done;
  !out

let pp ppf h =
  if h.n = 0 then Format.fprintf ppf "(empty)"
  else begin
    let widest =
      List.fold_left (fun acc (_, _, c) -> max acc c) 1 (buckets h)
    in
    Format.fprintf ppf "@[<v>";
    List.iter
      (fun (lo, hi, c) ->
        let bar = String.make (max 1 (c * 40 / widest)) '#' in
        Format.fprintf ppf "[%10d, %10d) %6d %s@ " lo hi c bar)
      (buckets h);
    Format.fprintf ppf "n=%d mean=%.0f max=%d@]" h.n (mean h) h.max_v
  end

let add_json buf h =
  Buffer.add_string buf
    (Printf.sprintf "{\"count\": %d, \"total\": %d, \"max\": %d, \"mean\": %.1f, \"buckets\": ["
       h.n h.sum h.max_v (mean h));
  List.iteri
    (fun i (lo, _, c) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Printf.sprintf "[%d, %d]" lo c))
    (buckets h);
  Buffer.add_string buf "]}"
