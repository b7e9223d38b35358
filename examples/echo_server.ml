(* Flagship backend demo: one echo server, two kernels.

   The handler, the clients and the traffic spike live in [Serving]
   (bench/serving.ml) and are byte-for-byte identical on both backends:

     echo_server --backend vm     simulated load, thousands of clients,
                                  deterministic virtual time
     echo_server --backend unix   the same code serving real loopback TCP
                                  sockets through the epoll event loop
     echo_server                  both, one after the other

   [--json FILE] writes a "serving" table (throughput, p50/p99) to the
   bench JSON object; [--trace FILE] exports the spike window of the run
   as Perfetto/Chrome trace-event JSON (drop it on ui.perfetto.dev). *)

let usage =
  "echo_server [--backend vm|unix|both] [--smoke] [--json FILE] [--trace FILE] \
   [--domains 1,2,4]"

let () =
  let backend_arg = ref "both" in
  let smoke = ref false in
  let json_out = ref None in
  let trace_out = ref None in
  let domains_arg = ref None in
  Arg.parse
    [
      ( "--backend",
        Arg.Set_string backend_arg,
        " vm | unix | both (default both)" );
      ("--smoke", Arg.Set smoke, " small fleets, CI-budget sized");
      ("--json", Arg.String (fun f -> json_out := Some f), " write a \"serving\" row table into this JSON file");
      ("--trace", Arg.String (fun f -> trace_out := Some f), " export the spike window as a Perfetto trace");
      ( "--domains",
        Arg.String (fun s -> domains_arg := Some s),
        " comma list (e.g. 1,2,4): sharded sweep, one echo instance per \
         shard on per-shard virtual kernels" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let smoke = !smoke in
  let want_trace = !trace_out <> None in
  let runs =
    match !backend_arg with
    | "vm" | "virtual" -> [ "vm" ]
    | "unix" | "real" -> [ "unix" ]
    | "both" -> [ "vm"; "unix" ]
    | s ->
        prerr_endline ("echo_server: unknown backend " ^ s);
        Stdlib.exit 2
  in
  let rows =
    List.map
      (fun name ->
        let backend =
          (* free-running on both backends, so the latency columns measure
             the workload (heavy-tail service times + connection queueing)
             and the two rows are comparable; pass a cost profile to
             [Pthreads.vm_backend] to add simulated CPU cost on top *)
          match name with
          | "vm" -> Pthreads.vm_backend ~profile:Vm.Cost_model.free ()
          | _ -> (
              match Pthreads.backend_of_string name with
              | Some b -> b
              | None -> assert false)
        in
        let params =
          if name = "vm" then Serving.vm_params ~smoke
          else Serving.unix_params ~smoke
        in
        Format.printf "-- %s backend: %d clients + %d spike, %d B echoes --@."
          name params.Serving.clients params.Serving.spike_clients
          Serving.msg_len;
        let row = Serving.run ~backend ~name ~trace:want_trace params in
        Format.printf "%a@.@." Serving.pp_row row;
        row)
      runs
  in
  (match !trace_out with
  | None -> ()
  | Some file ->
      (* prefer the deterministic virtual run's spike for the artifact *)
      let row =
        match List.find_opt (fun r -> r.Serving.sv_backend = "vm") rows with
        | Some r -> r
        | None -> List.hd rows
      in
      let oc = open_out file in
      output_string oc (Serving.spike_trace_json row);
      close_out oc;
      Format.printf "spike trace (%s backend) written to %s@."
        row.Serving.sv_backend file);
  let par_rows =
    match !domains_arg with
    | None -> []
    | Some spec ->
        let domain_counts =
          List.map
            (fun s ->
              match int_of_string_opt (String.trim s) with
              | Some d when d >= 1 -> d
              | _ ->
                  prerr_endline ("echo_server: bad --domains entry " ^ s);
                  Stdlib.exit 2)
            (String.split_on_char ',' spec)
        in
        let params = Serving.vm_params ~smoke in
        Format.printf
          "-- sharded sweep: one echo instance per shard, %d clients + %d \
           spike each --@."
          params.Serving.clients params.Serving.spike_clients;
        let rows = Serving.sweep_sharded ~domain_counts params in
        List.iter (fun r -> Format.printf "%a@." Serving.pp_par_row r) rows;
        (match rows with
        | r :: _ when r.Serving.sp_cores < 2 ->
            Format.printf
              "(single-core host: shards time-slice one core, speedup <= 1 \
               expected)@."
        | _ -> ());
        rows
  in
  (match !json_out with
  | None -> ()
  | Some file ->
      let keys =
        ("serving", Bench_json.array (List.map Serving.row_json rows))
        ::
        (if par_rows = [] then []
         else
           [
             ( "serving_parallel",
               Bench_json.array (List.map Serving.par_row_json par_rows) );
           ])
      in
      Bench_json.set_keys file keys;
      Format.printf "wrote serving rows to %s@." file)
