(* The wall-clock benchmark of the compiler, the engine and the tuners.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--limec PATH] [--out-dir DIR] [--selftest]

   --trace 0 prints the end-to-end metrics of NAME; --trace 1 prints the
   per-layer table, taken from spans the benchmark opens around its calls
   into each layer, and writes them as a Chrome trace; --selftest
   perturbs every independent reference and exits 0 only if every
   checked operation then fails.  The last line of standard output is
   the result as one JSON object.  See README.md. *)

open Bench_util

type workload = {
  name : string;
  tail_q : float;
      (* the highest percentile with at least ten samples beyond it in
         every run, that repeats within its bound *)
  start : seed:int -> instance;  (* the set-up the user pays *)
}

and instance = {
  cycle : op list list;
      (* the rounds, in their seeded order; each has the same share of
         failing operations *)
  pid : int;  (* the process that runs the layers *)
  observe : unit -> unit -> unit;
      (* brackets a traced pass; the closing call records the layer
         figures that come from outside the benchmark's own spans *)
  stop : unit -> unit;
}

let in_process cycle =
  { cycle; pid = Unix.getpid (); observe = (fun () () -> ()); stop = ignore }

let limec = ref "limec"
let out_dir = ref ".bench_run"

let workloads =
  [
    {
      name = "compile-daemon";
      tail_q = 0.99;
      start =
        (fun ~seed ->
          let d = Wl_daemon.setup ~limec:!limec ~dir:!out_dir in
          {
            cycle = [ Wl_daemon.round ~seed d ];
            pid = Wl_daemon.pid d;
            observe = Wl_daemon.observe d;
            stop = (fun () -> Wl_daemon.stop d);
          });
    };
    {
      name = "run-engine";
      tail_q = 0.975;
      start =
        (fun ~seed -> in_process [ Wl_engine.round ~seed (Wl_engine.setup ~seed) ]);
    };
    {
      name = "tune-search";
      tail_q = 0.997;
      start =
        (fun ~seed -> in_process (Wl_tune.rounds ~seed (Wl_tune.setup ~seed)));
    };
  ]

(* Set-up is repeated and its median reported, so that one slow start
   does not move [setup_s]. *)
let setup_reps = 3

let start_timed w ~seed =
  let times = ref [] and inst = ref None in
  for _ = 1 to setup_reps do
    Option.iter (fun i -> i.stop ()) !inst;
    let t0 = now () in
    let i = w.start ~seed in
    times := (now () -. t0) :: !times;
    inst := Some i
  done;
  (Option.get !inst, median_of_list !times)

let first_rounds w inst n =
  run_loop ~workload:w.name ~max_rounds:n ~seconds:infinity inst.cycle

(* One untimed round first: it fills the daemon's cache and the
   interpreter's and allocator's working state. *)
let warm_up w inst =
  ignore (first_rounds w inst 1);
  reset_failure_counts ()

let ops_per_s (r : result) = float_of_int r.passed /. r.busy_s

let end_to_end w ~seed ~seconds =
  let inst, setup_s = start_timed w ~seed in
  warm_up w inst;
  let r = run_loop ~workload:w.name ~seconds inst.cycle in
  let n = Array.length r.lats in
  if float_of_int n *. (1.0 -. w.tail_q) < 10.0 then
    Printf.eprintf
      "warning: %d samples leave fewer than ten beyond p%g\n%!" n
      (w.tail_q *. 100.0);
  Printf.eprintf "latency over %d operations:%s\n%!" n
    (String.concat ""
       (List.map
          (fun q ->
            Printf.sprintf " p%g %.3f ms" (q *. 100.0)
              (percentile r.lats q *. 1e3))
          [ 0.5; 0.9; 0.95; 0.99; 0.995; 0.999 ]));
  let rss = peak_rss_mb inst.pid in
  inst.stop ();
  Printf.eprintf "%s: %d rounds, %d operations, %d failed, %.2f s timed\n%!"
    w.name r.rounds n r.failed r.busy_s;
  ( r,
    [
      ("setup_s", setup_s, "s");
      ("ops_per_s", ops_per_s r, "1/s");
      ("lat_p50_ms", median r.lats *. 1e3, "ms");
      ("lat_tail_ms", percentile r.lats w.tail_q *. 1e3, "ms");
      ("peak_rss_mb", rss, "MB");
    ] )

(* The per-layer metrics, each from the workload the layer serves. *)
let layer_metrics (gc : gc_delta) ~ops =
  let per_op x = x /. float_of_int ops in
  [
    ("frontend.lex_us", mean_us "frontend.lex", "us");
    ("frontend.parse_us", mean_us "frontend.parse", "us");
    ("frontend.parse_alloc_kw", per_call "frontend.parse" "alloc_w" /. 1e3, "kw");
    ("typecheck.check_us", mean_us "typecheck.check", "us");
    ("ir.lower_us", mean_us "ir.lower", "us");
    ("ir.interp_ms", mean_us "ir.interp" /. 1e3, "ms");
    ("ir.interp_mops_per_s", per_second "ir.interp" "ops" /. 1e6, "Mops/s");
    ("ir.interp_alloc_mw", per_call "ir.interp" "alloc_w" /. 1e6, "Mw");
    ("core.extract_us", mean_us "core.extract", "us");
    ("core.simplify_us", mean_us "core.simplify", "us");
    ("core.memopt_us", mean_us "core.memopt", "us");
    ("core.codegen_us", mean_us "core.codegen", "us");
    ("service.digest_us", mean_us "service.digest", "us");
    ("service.kcache_hit_ratio", per_call "server.roundtrip" "hit", "ratio");
    ("server.request_us", Hashtbl.find direct "server.request_us", "us");
    ("server.queue_wait_us", Hashtbl.find direct "server.queue_wait_us", "us");
    ( "server.wire_overhead_us",
      mean_us "server.roundtrip" -. Hashtbl.find direct "server.request_us",
      "us" );
    ("runtime.prepare_ms", mean_us "runtime.prepare" /. 1e3, "ms");
    ("runtime.fire_ms", mean_us "runtime.fire" /. 1e3, "ms");
    ("runtime.marshal_mb_per_s", per_second "runtime.marshal" "bytes" /. 1e6, "MB/s");
    ("sched.probe_ms", mean_us "sched.probe" /. 1e3, "ms");
    ("sched.search_us", mean_us "sched.search", "us");
    ("sched.evals_per_search", per_call "sched.search" "evals", "count");
    ("rewrite.search_ms", mean_us "rewrite.search" /. 1e3, "ms");
    ("rewrite.evals_per_search", per_call "rewrite.search" "evals", "count");
    ( "gpusim.model_us_per_eval",
      (layer "gpusim.model").us /. sum_attr "gpusim.model" "evals",
      "us" );
    ("gc.alloc_mb_per_op", per_op (gc.alloc_words *. 8.0 /. 1e6), "MB");
    ("gc.minor_per_op", per_op (float_of_int gc.minor), "count");
    ("gc.major_per_op", per_op (float_of_int gc.major), "count");
  ]

(* The traced run: the named workload runs untraced and then traced for
   half the time each (their gap is the tracing overhead); every other
   workload runs one traced round, so that each layer is measured on the
   workload it serves. *)
let traced_run w ~seed ~seconds =
  let main = ref None in
  List.iter
    (fun x ->
      let inst = x.start ~seed in
      warm_up x inst;
      let traced_pass pass =
        Lime_service.Trace.set_enabled tracer true;
        let finish = inst.observe () in
        let r = pass () in
        finish ();
        Lime_service.Trace.set_enabled tracer false;
        r
      in
      if x.name = w.name then begin
        let plain = run_loop ~workload:x.name ~seconds:(seconds /. 2.0) inst.cycle in
        let spanned =
          traced_pass (fun () ->
              run_loop ~workload:x.name ~seconds:(seconds /. 2.0) inst.cycle)
        in
        main := Some (plain, spanned)
      end
      else ignore (traced_pass (fun () -> first_rounds x inst 1));
      inst.stop ())
    workloads;
  let plain, spanned = Option.get !main in
  let metrics = layer_metrics plain.gc ~ops:(Array.length plain.lats) in
  Printf.printf "per-layer table (%s, seed %d)\n" w.name seed;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-28s %14.3f %s\n" name v unit)
    metrics;
  let overhead = 1.0 -. (ops_per_s spanned /. ops_per_s plain) in
  Printf.printf
    "tracing overhead on %s: ops_per_s %.1f untraced, %.1f traced (%.1f%%)\n"
    w.name (ops_per_s plain) (ops_per_s spanned) (overhead *. 100.0);
  let file =
    Filename.concat !out_dir (Printf.sprintf "trace-%s-%d.json" w.name seed)
  in
  Lime_service.Trace.write_chrome tracer file;
  Printf.printf "trace written to %s\n" file;
  (plain, metrics)

let selftest_run w ~seed =
  selftest := true;
  let inst = w.start ~seed in
  let r = first_rounds w inst (List.length inst.cycle) in
  inst.stop ();
  let n = Array.length r.lats in
  Printf.printf "selftest %s: %d of %d checked operations failed — %s\n"
    w.name r.failed n
    (if r.failed = n then "ok" else "FAIL");
  exit (if r.failed = n then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S timed operation seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--limec", Arg.Set_string limec, "PATH the limec binary");
      ("--out-dir", Arg.Set_string out_dir, "DIR where run files go");
      ("--selftest", Arg.Set self, " perturb every reference");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S; available: %s\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if !self then selftest_run w ~seed:!seed;
  let r, metrics =
    if !trace = 1 then traced_run w ~seed:!seed ~seconds:!seconds
    else end_to_end w ~seed:!seed ~seconds:!seconds
  in
  report_failures ();
  (* correct: every failed operation hit one of the two known faults *)
  let known (_, fault) _ =
    String.starts_with ~prefix:"F1:" fault
    || String.starts_with ~prefix:"F2:" fault
  in
  let correct = Hashtbl.fold (fun k v acc -> acc && known k v) failures true in
  print_result ~correct
    ~attempted:(Array.length r.lats)
    ~failed:r.failed metrics
