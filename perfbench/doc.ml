(* The result document: a tiny JSON emitter and the validity rules every
   result must pass before it is printed.

   Rules checked on the serialized text, re-read with the library's own
   [Obs.Json] reader:
   - it parses;
   - no object has a duplicate key;
   - every object that carries both ["p99"] and ["max"] has p99 <= max,
     and p50 <= p99 where all three are present. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | List of t list
  | Obj of (string * t) list

let rec add b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else invalid_arg "Doc: non-finite number"
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (Obs.Json.escape s);
      Buffer.add_char b '"'
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          add b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add b (Str k);
          Buffer.add_char b ':';
          add b v)
        kvs;
      Buffer.add_char b '}'

let to_string d =
  let b = Buffer.create 4096 in
  add b d;
  Buffer.contents b

(* A distribution as published: sample count, exact percentiles (absent
   when too few samples lie beyond them), extremes and mean. *)
let of_summary ?(scale = 1.0) (s : Samples.summary) =
  let v x = Float (float_of_int x /. scale) in
  let opt name = function None -> [] | Some x -> [ (name, v x) ] in
  Obj
    ([ ("n", Int s.n); ("min", v s.min) ]
    @ opt "p50" s.p50 @ opt "p99" s.p99
    @ [ ("max", v s.max); ("mean", Float (s.mean /. scale)) ])

let ( let* ) = Result.bind

let rec check_all = function
  | [] -> Ok ()
  | v :: rest ->
      let* () = check v in
      check_all rest

and check (j : Obs.Json.t) =
  match j with
  | Obs.Json.Obj kvs ->
      let rec dup = function
        | [] -> Ok ()
        | k :: rest ->
            if List.mem k rest then Error ("duplicate key " ^ k) else dup rest
      in
      let* () = dup (List.map fst kvs) in
      let num k =
        match List.assoc_opt k kvs with Some (Obs.Json.Num f) -> Some f | _ -> None
      in
      let* () =
        match (num "p50", num "p99", num "max") with
        | _, Some p99, Some mx when p99 > mx ->
            Error (Printf.sprintf "p99 %g above max %g" p99 mx)
        | Some p50, Some p99, _ when p50 > p99 ->
            Error (Printf.sprintf "p50 %g above p99 %g" p50 p99)
        | _ -> Ok ()
      in
      check_all (List.map snd kvs)
  | Obs.Json.Arr xs -> check_all xs
  | _ -> Ok ()

let validate text =
  let* j = Obs.Json.parse text in
  check j
