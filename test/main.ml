let () =
  Alcotest.run "pthreads"
    (Test_vm.suite @ Test_sigset.suite @ Test_unix_kernel.suite
   @ Test_heap_process.suite @ Test_ready_queue.suite @ Test_thread.suite
   @ Test_mutex.suite @ Test_cond.suite @ Test_signals.suite
   @ Test_cancel.suite @ Test_cleanup_tsd_jmp.suite @ Test_sched.suite
   @ Test_protocols.suite @ Test_perverted.suite @ Test_semaphore.suite
   @ Test_tasking.suite @ Test_engine.suite @ Test_sync_extras.suite
   @ Test_libc_r.suite @ Test_tools.suite @ Test_suspend.suite @ Test_edge.suite @ Test_flat.suite @ Test_sched_policy.suite @ Test_machine.suite @ Test_process_control.suite @ Test_interplay.suite @ Test_trace.suite @ Test_io.suite @ Test_machine_fuzz.suite @ Test_conformance.suite @ Test_metrics.suite @ Test_golden.suite @ Test_explore.suite @ Test_sample.suite @ Test_soak.suite @ Test_fault.suite
   @ Test_trace_stats.suite @ Test_obs.suite @ Test_fuzz.suite @ Test_timer_wheel.suite
   @ Test_sanitize.suite @ Test_backend.suite
   @ Test_parallel.suite @ Test_probe.suite)
