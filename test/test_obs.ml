(* The observability layer: log2 histograms, the Chrome trace-event
   export, and the contention/dispatch-latency profiles — each checked
   against an independent accounting of the same trace. *)

open Tu
open Pthreads
module Trace = Vm.Trace
module Trace_stats = Vm.Trace_stats
module H = Obs.Histogram
module Json = Obs.Json

(* ---------------- histograms ---------------- *)

let test_histogram_basics () =
  let h = H.create () in
  List.iter (H.add h) [ 0; 1; 5; 5; 1024 ];
  check int "count" 5 (H.count h);
  check int "total" 1035 (H.total h);
  check int "max" 1024 (H.max_value h);
  check bool "mean" true (abs_float (H.mean h -. 207.0) < 0.001);
  check bool "buckets are [0,1) [1,2) [4,8) [1024,2048)" true
    (H.buckets h = [ (0, 1, 1); (1, 2, 1); (4, 8, 2); (1024, 2048, 1) ])

let test_histogram_percentile () =
  let h = H.create () in
  for _ = 1 to 100 do
    H.add h 1
  done;
  H.add h 1000;
  check int "p50 is the small bucket's upper bound" 2 (H.percentile h 50.0);
  check int "p100 is the outlier, not its bucket's top" 1000
    (H.percentile h 100.0);
  check int "empty histogram percentiles are 0" 0
    (H.percentile (H.create ()) 99.0);
  (* a bucket's top (8192 here) can exceed every sample in it: the clamp
     to the observed max keeps p99 <= max *)
  let one = H.create () in
  H.add one 5000;
  check int "p50 of one sample" 5000 (H.percentile one 50.0);
  check int "p99 of one sample" 5000 (H.percentile one 99.0)

(* ---------------- a traced contention scenario ---------------- *)

(* Three workers fighting over one mutex, with enough busy time inside
   the critical section that every profile has something to measure. *)
let contended_proc () =
  let proc =
    Pthread.make_proc ~trace:true (fun proc ->
        let m = Mutex.create proc ~name:"hot" ()
        and quiet = Mutex.create proc ~name:"quiet" () in
        let worker i =
          Pthread.create_unit proc
            ~attr:(Attr.with_name (Printf.sprintf "w%d" i) Attr.default)
            (fun () ->
              for _ = 1 to 3 do
                Mutex.lock proc m;
                Pthread.busy proc ~ns:20_000;
                (* yield while holding: the other workers run and block *)
                Pthread.yield proc;
                Pthread.busy proc ~ns:5_000;
                Mutex.unlock proc m;
                Mutex.lock proc quiet;
                Mutex.unlock proc quiet;
                Pthread.yield proc
              done)
        in
        let ws = List.init 3 worker in
        List.iter (fun t -> ignore (Pthread.join proc t)) ws;
        0)
  in
  Pthread.start proc;
  proc

(* ---------------- Chrome trace export ---------------- *)

let num = function Some (Json.Num f) -> Some f | _ -> None

let test_chrome_export_schema () =
  let proc = contended_proc () in
  let doc = Obs.Chrome_trace.export (Pthread.trace_events proc) in
  match Json.parse doc with
  | Error e -> Alcotest.failf "export does not parse: %s" e
  | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.Arr events) ->
          check bool "has events" true (List.length events > 10);
          (* per-tid timestamps monotone, metadata records aside *)
          let last : (float, float) Hashtbl.t = Hashtbl.create 8 in
          List.iter
            (fun ev ->
              match Json.member "ph" ev with
              | Some (Json.Str "M") -> ()
              | _ -> (
                  match
                    (num (Json.member "tid" ev), num (Json.member "ts" ev))
                  with
                  | Some tid, Some ts ->
                      (match Hashtbl.find_opt last tid with
                      | Some prev ->
                          check bool "ts monotone per tid" true (ts >= prev)
                      | None -> ());
                      Hashtbl.replace last tid ts
                  | _ -> ()))
            events
      | _ -> Alcotest.fail "no traceEvents array")

let test_slices_match_trace_stats () =
  let proc = contended_proc () in
  let events = Pthread.trace_events proc in
  let sums : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.Chrome_trace.slice) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt sums s.s_tid) in
      Hashtbl.replace sums s.s_tid (prev + (s.s_end_ns - s.s_start_ns)))
    (Obs.Chrome_trace.running_slices events);
  let reports = Trace_stats.per_thread events in
  check bool "several threads" true (List.length reports >= 4);
  List.iter
    (fun (r : Trace_stats.thread_report) ->
      check int
        (Printf.sprintf "slice total of %s equals cpu_ns" r.Trace_stats.name)
        r.Trace_stats.cpu_ns
        (Option.value ~default:0 (Hashtbl.find_opt sums r.Trace_stats.tid)))
    reports

(* ---------------- contention and latency cross-checks ---------------- *)

let test_contention_cross_check () =
  let proc = contended_proc () in
  let events = Pthread.trace_events proc in
  let reports = Trace_stats.per_thread events in
  let contention = Obs.Contention.of_events events in
  let blocked_total =
    List.fold_left
      (fun n (r : Trace_stats.thread_report) -> n + r.Trace_stats.mutex_blocked_ns)
      0 reports
  in
  check int "total wait equals Trace_stats blocked time" blocked_total
    (Obs.Contention.total_wait_ns contention);
  let acq_total =
    List.fold_left
      (fun n (r : Trace_stats.thread_report) ->
        n + r.Trace_stats.lock_acquisitions)
      0 reports
  in
  check int "acquisitions equal Trace_stats acquisitions" acq_total
    (List.fold_left
       (fun n (r : Obs.Contention.report) -> n + r.Obs.Contention.acquisitions)
       0 contention);
  (* the hot mutex is the top offender, the uncontended one is not *)
  (match Obs.Contention.top_offenders ~limit:1 contention with
  | [ worst ] ->
      check string "worst is the hot mutex" "hot" worst.Obs.Contention.c_name;
      check bool "hot saw contended acquisitions" true
        (worst.Obs.Contention.contended > 0)
  | _ -> Alcotest.fail "no top offender");
  let quiet =
    List.find (fun r -> r.Obs.Contention.c_name = "quiet") contention
  in
  check int "quiet mutex never contended" 0 quiet.Obs.Contention.contended

let test_latency_one_sample_per_dispatch () =
  let proc = contended_proc () in
  let events = Pthread.trace_events proc in
  let latency = Obs.Latency.of_events events in
  check int "one sample per traced dispatch" (Engine.dispatch_count proc)
    (H.count latency);
  check bool "latencies are finite" true (H.max_value latency >= 0)

(* ---------------- golden export ---------------- *)

(* The same deterministic token-handoff scenario obs_demo regenerates
   with --golden: two threads alternating through one mutex + condvar.
   Virtual time makes the export reproducible byte for byte. *)
let small_events () =
  let proc =
    Pthread.make_proc ~trace:true (fun proc ->
        let m = Mutex.create proc ~name:"token" () in
        let c = Cond.create proc ~name:"handoff" () in
        let turn = ref 0 in
        let player me next =
          Pthread.create_unit proc
            ~attr:(Attr.with_name (Printf.sprintf "player%d" me) Attr.default)
            (fun () ->
              for _ = 1 to 2 do
                Mutex.lock proc m;
                while !turn <> me do
                  ignore (Cond.wait proc c m : Cond.wait_result)
                done;
                Pthread.busy proc ~ns:10_000;
                turn := next;
                Cond.broadcast proc c;
                Mutex.unlock proc m
              done)
        in
        let a = player 0 1 in
        let b = player 1 0 in
        ignore (Pthread.join proc a);
        ignore (Pthread.join proc b);
        0)
  in
  Pthread.start proc;
  Pthread.trace_events proc

let test_golden_chrome_export () =
  let golden =
    In_channel.with_open_text (golden_path "small.trace.json")
      In_channel.input_all
  in
  let doc = Obs.Chrome_trace.export ~process_name:"small" (small_events ()) in
  check bool "golden parses" true (Result.is_ok (Json.parse golden));
  check string "export matches the golden file" golden doc

let suite =
  [
    ( "obs",
      [
        tc "histogram basics" test_histogram_basics;
        tc "histogram percentile" test_histogram_percentile;
        tc "chrome export schema" test_chrome_export_schema;
        tc "slices match trace stats" test_slices_match_trace_stats;
        tc "contention cross-check" test_contention_cross_check;
        tc "latency per dispatch" test_latency_one_sample_per_dispatch;
        tc "golden chrome export" test_golden_chrome_export;
      ] );
  ]
