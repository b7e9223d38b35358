(* Calibration guards: the Table 2 metrics must keep their published shape.
   These tests execute the same measurement code as bench/main.exe, so a
   change that silently breaks the evaluation fails `dune runtest`. *)

open Tu
module Cost_model = Vm.Cost_model

(* Local copies of the bench measurements (bench is an executable, not a
   library); each is the dual-loop virtual-time measurement. *)

let within name ~lo ~hi v =
  check bool (Printf.sprintf "%s in [%g, %g] (got %.2f)" name lo hi v) true
    (v >= lo && v <= hi)

let kernel_pair profile =
  let r = ref nan in
  ignore
    (Pthreads.Pthread.run ~profile (fun proc ->
         let t0 = Pthreads.Pthread.now proc in
         for _ = 1 to 1000 do
           Pthreads.Engine.enter_kernel proc;
           Pthreads.Engine.leave_kernel proc
         done;
         r := Vm.Clock.us_of_ns (Pthreads.Pthread.now proc - t0) /. 1000.0;
         0));
  !r

let mutex_pair profile =
  let r = ref nan in
  ignore
    (Pthreads.Pthread.run ~profile (fun proc ->
         let m = Pthreads.Mutex.create proc () in
         let t0 = Pthreads.Pthread.now proc in
         for _ = 1 to 1000 do
           Pthreads.Mutex.lock proc m;
           Pthreads.Mutex.unlock proc m
         done;
         r := Vm.Clock.us_of_ns (Pthreads.Pthread.now proc - t0) /. 1000.0;
         0));
  !r

let yield_switch profile =
  let r = ref nan in
  ignore
    (Pthreads.Pthread.run ~profile (fun proc ->
         let n = 200 in
         let t =
           Pthreads.Pthread.create_unit proc (fun () ->
               for _ = 1 to n do
                 Pthreads.Pthread.yield proc
               done)
         in
         let t0 = Pthreads.Pthread.now proc in
         for _ = 1 to n do
           Pthreads.Pthread.yield proc
         done;
         let t1 = Pthreads.Pthread.now proc in
         ignore (Pthreads.Pthread.join proc t);
         r := Vm.Clock.us_of_ns (t1 - t0) /. float_of_int (2 * n);
         0));
  !r

let test_ipx_calibration () =
  (* paper: 0.4 / 1 / 37 us; keep within a generous envelope *)
  within "kernel enter+exit" ~lo:0.3 ~hi:0.6 (kernel_pair Cost_model.sparc_ipx);
  within "mutex pair" ~lo:0.8 ~hi:1.6 (mutex_pair Cost_model.sparc_ipx);
  within "yield switch" ~lo:28.0 ~hi:45.0 (yield_switch Cost_model.sparc_ipx)

let test_profiles_ordered () =
  (* every metric is slower on the SPARC 1+ *)
  check bool "kernel pair ordered" true
    (kernel_pair Cost_model.sparc_1plus > kernel_pair Cost_model.sparc_ipx);
  check bool "mutex pair ordered" true
    (mutex_pair Cost_model.sparc_1plus > mutex_pair Cost_model.sparc_ipx);
  check bool "yield ordered" true
    (yield_switch Cost_model.sparc_1plus > yield_switch Cost_model.sparc_ipx)

let test_shape_relations () =
  let prof = Cost_model.sparc_ipx in
  let kp = kernel_pair prof and mp = mutex_pair prof and ys = yield_switch prof in
  let unix_pair =
    let k = Vm.Unix_kernel.create prof in
    let t0 = Vm.Unix_kernel.now k in
    for _ = 1 to 100 do
      ignore (Vm.Unix_kernel.getpid k : int)
    done;
    Vm.Clock.us_of_ns (Vm.Unix_kernel.now k - t0) /. 100.0
  in
  let proc_switch =
    Vm.Unix_process.context_switch_ns prof ~iterations:100 /. 1e3
  in
  (* the paper's qualitative claims *)
  check bool "library kernel >> cheaper than UNIX kernel" true
    (unix_pair > 20.0 *. kp);
  check bool "uncontended mutex cheaper than a trap" true (mp < unix_pair);
  check bool "thread switch ~3x cheaper than process switch" true
    (proc_switch > 2.5 *. ys)

(* Re-running a bench writer replaces its keys: the object stays valid
   JSON with exactly one copy of each, and other writers' keys survive
   (including commas and brackets inside their strings). *)
let test_bench_json_replaces_keys () =
  let file = Filename.temp_file "bench_json" ".json" in
  Sys.remove file;
  Bench_json.set_keys file [ ("table2", "[1, 2]"); ("note", "\"a, [b\\\" }\"") ];
  Bench_json.set_keys file [ ("serving", "{\"rps\": 1}") ];
  Bench_json.set_keys file [ ("serving", "{\"rps\": 2}"); ("extra", "[]") ];
  let ic = open_in_bin file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  match Obs.Json.parse text with
  | Ok (Obs.Json.Obj members) ->
      check (Alcotest.list string) "one copy of each key"
        [ "table2"; "note"; "serving"; "extra" ]
        (List.map fst members);
      check bool "latest value wins" true
        (Obs.Json.member "serving" (Obs.Json.Obj members)
        = Some (Obs.Json.Obj [ ("rps", Obs.Json.Num 2.) ]));
      check bool "other keys untouched" true
        (List.assoc "note" members = Obs.Json.Str "a, [b\" }")
  | Ok _ -> Alcotest.fail "not an object"
  | Error e -> Alcotest.fail ("invalid JSON: " ^ e)

let suite =
  [
    ( "metrics",
      [
        tc "IPX calibration" test_ipx_calibration;
        tc "profiles ordered" test_profiles_ordered;
        tc "shape relations" test_shape_relations;
        tc "bench json replaces keys" test_bench_json_replaces_keys;
      ] );
  ]
