(* The benchmark's own rules: exact nearest-rank percentiles with their
   sample counts, p99 withheld without ten samples beyond it, p99 <= max,
   and result documents that re-parse with [Obs.Json] without duplicate
   keys. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let of_list xs =
  let t = Samples.create () in
  List.iter (Samples.add t) xs;
  t

let () =
  (* 1..1000 in reverse: sorting is the percentile's job *)
  let s = Samples.summarize (of_list (List.init 1000 (fun i -> 1000 - i))) in
  (match s with
  | Some s ->
      check "count" (s.n = 1000);
      check "p50 is rank 500" (s.p50 = Some 500);
      check "p99 is rank 990" (s.p99 = Some 990);
      check "min/max" (s.min = 1 && s.max = 1000)
  | None -> check "summary of 1000 samples" false);
  (* 999 samples leave only 9 beyond rank 990: p99 is withheld *)
  (match Samples.summarize (of_list (List.init 999 (fun i -> i))) with
  | Some s ->
      check "p99 withheld below 10 beyond" (s.p99 = None);
      check "p50 still published" (s.p50 <> None)
  | None -> check "summary of 999 samples" false);
  check "empty summary" (Samples.summarize (Samples.create ()) = None);
  (* heavy tail: p99 is an observed sample, never above max *)
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 50 do
    let n = 1000 + Random.State.int rng 5000 in
    let xs =
      List.init n (fun _ ->
          let u = Random.State.float rng 1.0 in
          int_of_float (1000.0 /. ((u +. 1e-9) ** 0.7)))
    in
    match Samples.summarize (of_list xs) with
    | Some { p99 = Some p99; max; p50 = Some p50; _ } ->
        check "p50 <= p99 <= max" (p50 <= p99 && p99 <= max);
        check "p99 observed" (List.mem p99 xs)
    | _ -> check "heavy-tail summary" false
  done;
  (* windowed percentiles: one window per 1000 samples in arrival order,
     the partial tail left out, a stalled window visible only in itself *)
  let w = Samples.create () in
  for k = 0 to 4 do
    for i = 1 to 1000 do
      Samples.add w (if k = 2 && i > 900 then 1_000_000 else i)
    done
  done;
  for i = 1 to 999 do
    Samples.add w i
  done;
  let p99s = Samples.window_quantiles [ w ] ~size:1000 ~num:99 ~den:100 in
  check "five full windows" (List.length p99s = 5);
  check "stalled window only" (p99s = [ 990; 990; 1_000_000; 990; 990 ]);
  check "median odd" (Samples.median_float [ 3.; 1.; 2. ] = 2.);
  check "median even" (Samples.median_float [ 4.; 1.; 2.; 3. ] = 2.5);
  (* document validity *)
  let ok d = Doc.validate (Doc.to_string d) = Ok () in
  let summary = Option.get (Samples.summarize (of_list (List.init 2000 Fun.id))) in
  check "summary document valid"
    (ok (Doc.Obj [ ("lat", Doc.of_summary ~scale:1e3 summary) ]));
  check "duplicate key rejected"
    (not (ok (Doc.Obj [ ("a", Doc.Int 1); ("b", Doc.Obj [ ("x", Doc.Int 1); ("x", Doc.Int 2) ]) ])));
  check "p99 above max rejected"
    (not (ok (Doc.Obj [ ("d", Doc.Obj [ ("p99", Doc.Int 9); ("max", Doc.Int 8) ]) ])));
  check "p50 above p99 rejected"
    (not (ok (Doc.Obj [ ("p50", Doc.Int 9); ("p99", Doc.Int 8); ("max", Doc.Int 9) ])));
  check "floats round-trip"
    (match Obs.Json.parse (Doc.to_string (Doc.Float 0.1234567890123)) with
    | Ok (Obs.Json.Num f) -> f = 0.1234567890123
    | _ -> false);
  if !failures > 0 then exit 1;
  print_endline "perfbench rules: ok"
