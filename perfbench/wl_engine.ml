(* run-engine: every pipelined registry program's [main] at test scale,
   from [main] to its sink.  Nothing compiles in the timed loop: the
   interpreter, the engine, marshalling and (for the multi-device
   programs) the placement probe do the work. *)

open Bench_util
module B = Lime_benchmarks.Bench_def
module Registry = Lime_benchmarks.Registry
module Ir = Lime_ir.Ir
module Interp = Lime_ir.Interp
module Engine = Lime_runtime.Engine
module Marshal = Lime_runtime.Marshal
module Device = Gpusim.Device
module SExec = Lime_sched.Exec
module SProbe = Lime_sched.Probe
module SSearch = Lime_sched.Search
module SPlacement = Lime_sched.Placement

(* Per program: main's count and steps, sized so that most runs cost
   30-60 ms and no program dominates; [multi] programs run through the
   placement scheduler as `limec --multi-device auto --run` does.
   Parboil-RPES is the slowest at about 200 ms: its work is fixed by the
   test-scale source (1024 outputs) whatever the count, which must exceed
   its 16-shell window.  Mosaic's count includes its 512 library tiles.
   N-Body Pipe's main takes steps alone (its count is baked into the
   test-scale source). *)
let sizing =
  [
    ("N-Body (Single)", 64, 2, false);
    ("N-Body (Double)", 64, 2, false);
    ("Mosaic", Lime_benchmarks.Mosaic.lib_tiles + 1, 1, false);
    ("Parboil-CP", 4, 2, true);
    ("Parboil-MRIQ", 16, 2, false);
    ("Parboil-RPES", 32, 1, false);
    ("JG-Crypt", 1024, 2, false);
    ("JG-Series (Single)", 64, 2, false);
    ("JG-Series (Double)", 64, 2, false);
    ("N-Body Pipe", 0, 1, true);
  ]

let gpus = [| Device.gtx8800; Device.gtx580; Device.hd5970 |]

type prog = {
  b : B.t;
  md : Ir.modul;
  cls : string;
  args : Lime_ir.Value.t list;
  multi : bool;
  cfg : Engine.config;
  label : string;
  worker_ok : bool Lazy.t;
      (* the worker run by the interpreter on [input_small] agrees with
         [Bench_def.reference] *)
  bytecode_sink : Lime_ir.Value.t Lazy.t;  (* device = None *)
  single_sink : Lime_ir.Value.t Lazy.t;  (* one device, for [multi] *)
}

let entry_of (md : Ir.modul) =
  Hashtbl.fold
    (fun _ (f : Ir.func) acc ->
      if f.Ir.fn_method = "main" && f.Ir.fn_static then Some f.Ir.fn_class
      else acc)
    md.Ir.md_funcs None
  |> Option.get

let choose stages ~firings =
  (SSearch.search ~firings stages).SSearch.po_best.SSearch.pc_placement

let sink (_, (r : Engine.report)) = r.Engine.last_value

let run_worker (b : B.t) (md : Ir.modul) =
  let cls, meth =
    match String.split_on_char '.' b.B.worker with
    | [ c; m ] -> (c, m)
    | _ -> invalid_arg b.B.worker
  in
  let st = Interp.create md in
  let v = Interp.run st ~cls ~meth [ b.B.input_small () ] in
  (v, st.Interp.counters)

let ops_counted (c : Interp.counters) =
  c.Interp.alu + c.Interp.divs + c.Interp.sqrts + c.Interp.transcendentals
  + c.Interp.mem_reads + c.Interp.mem_writes + c.Interp.bounds_checks
  + c.Interp.field_accesses + c.Interp.branches + c.Interp.calls
  + c.Interp.double_ops

(* Set-up: compile every program to run. *)
let setup ~seed =
  let rng = Lime_support.Prng.create (seed lxor 0x656e67) in
  List.map
    (fun (name, count, steps, multi) ->
      let b = Option.get (Registry.find name) in
      let md = (Registry.compile_small b).Lime_gpu.Pipeline.cp_module in
      let cls = entry_of md in
      let args =
        if count = 0 then [ Lime_ir.Value.VInt steps ]
        else [ Lime_ir.Value.VInt count; Lime_ir.Value.VInt steps ]
      in
      let device = gpus.(Lime_support.Prng.int rng (Array.length gpus)) in
      let cfg = { Engine.default_config with Engine.device = Some device } in
      let run cfg = Engine.run_program cfg md ~cls ~meth:"main" args in
      {
        b;
        md;
        cls;
        args;
        multi;
        cfg;
        label =
          Printf.sprintf "%s main(%s) on %s%s" name
            (String.concat ", "
               (List.map Lime_ir.Value.to_string args))
            device.Device.name
            (if multi then " placed" else "");
        worker_ok =
          lazy
            (close
               (fst (run_worker b md))
               (reference_value (b.B.reference (b.B.input_small ()))));
        bytecode_sink =
          lazy (sink (run { cfg with Engine.device = None }));
        single_sink = lazy (sink (run cfg));
      })
    sizing

(* The engine's [attach] and the scheduler's [Exec.attach], with a span
   around each layer call; used for the traced run. *)
let run_spanned (p : prog) : Engine.report =
  let st = Interp.create p.md in
  let report = Engine.fresh_report () in
  st.Interp.finish_hook <-
    (fun st graph iters ->
      let iters = Option.value iters ~default:1 in
      let cfg =
        if p.multi then begin
          let stages =
            span "sched.probe" (fun () ->
                SProbe.probe ~config:p.cfg.Engine.opt_config
                  ~serializer:p.cfg.Engine.serializer st.Interp.md graph)
          in
          let placement = choose stages ~firings:iters in
          {
            p.cfg with
            Engine.placement = Some (SPlacement.to_engine placement);
          }
        end
        else p.cfg
      in
      let pipeline =
        span "runtime.prepare" (fun () ->
            Engine.prepare cfg st.Interp.md report graph)
      in
      span "runtime.fire" (fun () ->
          Engine.run_prepared cfg st report pipeline ~iters));
  ignore (Interp.run st ~cls:p.cls ~meth:"main" p.args);
  report

let run_op (p : prog) : Lime_ir.Value.t =
  if traced () then (run_spanned p).Engine.last_value
  else if p.multi then
    let _, r, _ =
      SExec.run_program p.cfg ~choose p.md ~cls:p.cls ~meth:"main" p.args
    in
    r.Engine.last_value
  else sink (Engine.run_program p.cfg p.md ~cls:p.cls ~meth:"main" p.args)

(* Traced only: the interpreter and marshalling layers timed on their
   own.  The interpreter runs each program's worker once a process, as it
   costs more than the operation itself. *)
let interpreted : (string, unit) Hashtbl.t = Hashtbl.create 16

let layer_probes (p : prog) (sink_v : Lime_ir.Value.t) =
  if not (Hashtbl.mem interpreted p.b.B.name) then begin
    Hashtbl.replace interpreted p.b.B.name ();
    ignore
      (span_alloc "ir.interp"
         ~attrs:(fun (_, c) -> [ ("ops", float_of_int (ops_counted c)) ])
         (fun () -> run_worker p.b p.md))
  end;
  List.iter
    (fun x ->
      ignore
        (span "runtime.marshal"
           ~attrs:(fun n -> [ ("bytes", float_of_int n) ])
           (fun () ->
             let e = Marshal.encode x in
             ignore (Marshal.decode e);
             Bytes.length e)))
    [ p.b.B.input_small (); sink_v ]

let op (p : prog) : op =
  {
    label = p.label;
    run =
      (fun () ->
        let got = run_op p in
        fun () ->
          if traced () then layer_probes p got;
          checks
            [
              ( "sink differs from the all-bytecode run (device = None)",
                fun () ->
                  bitexact got (reference_value (Lazy.force p.bytecode_sink)) );
              ( "multi-device sink differs from the single-device sink",
                fun () ->
                  (not p.multi)
                  || bitexact got (reference_value (Lazy.force p.single_sink)) );
              ( "worker on input_small disagrees with Bench_def.reference",
                fun () -> Lazy.force p.worker_ok );
            ]);
  }

(* A round: every program once, in an order drawn from the seed. *)
let round ~seed progs =
  let a = Array.of_list progs in
  Lime_support.Prng.shuffle_in_place
    (Lime_support.Prng.create (seed lxor 0x726f756e64))
    a;
  Array.to_list (Array.map op a)
