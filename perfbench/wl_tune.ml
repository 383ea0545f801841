(* tune-search: the rewrite beam search at its default width and depth
   for every registry kernel on each Table 2 device, interleaved with
   placement searches over pipelines probed during set-up.  The
   interpreter runs only in set-up and in the checks. *)

open Bench_util
module B = Lime_benchmarks.Bench_def
module Registry = Lime_benchmarks.Registry
module Ir = Lime_ir.Ir
module Kernel = Lime_gpu.Kernel
module Memopt = Lime_gpu.Memopt
module Pipeline = Lime_gpu.Pipeline
module Clcheck = Lime_gpu.Clcheck
module Device = Gpusim.Device
module Model = Gpusim.Model
module Profile = Gpusim.Profile
module RSearch = Lime_rewrite.Search
module SSearch = Lime_sched.Search
module SProbe = Lime_sched.Probe

type kernel_case = {
  kb : B.t;
  compiled : Pipeline.compiled;
  shapes : (string * int array) list;
  scalars : (string * float) list;
  input : Lime_ir.Value.t;
  expected : Lime_ir.Value.t;  (* Bench_def.reference on [input] *)
}

type pipeline_case = { pname : string; stages : SProbe.stage list }

let devices = [ Device.gtx8800; Device.gtx580; Device.hd5970; Device.core_i7 ]

(* placement searches price this many firings of each probed pipeline *)
let firings = [ 1; 4; 16; 64 ]

(* Probe a pipeline without firing it: a finish hook that records the
   stages and returns. *)
let probe_pipeline (b : B.t) ~count =
  let md = (Registry.compile_small b).Pipeline.cp_module in
  let cls = Wl_engine.entry_of md in
  let stages = ref [] in
  let st = Lime_ir.Interp.create md in
  st.Lime_ir.Interp.finish_hook <-
    (fun st' graph _ -> stages := SProbe.probe st'.Lime_ir.Interp.md graph);
  let args =
    if count = 0 then [ Lime_ir.Value.VInt 1 ]
    else [ Lime_ir.Value.VInt count; Lime_ir.Value.VInt 1 ]
  in
  ignore (Lime_ir.Interp.run st ~cls ~meth:"main" args);
  !stages

(* Set-up: compile every kernel to tune and probe every pipeline to
   place. *)
let setup ~seed =
  let kernels =
    List.map
      (fun (b : B.t) ->
        let compiled = Registry.compile_small b in
        let input = b.B.input_small ~seed () in
        let shapes, scalars =
          Lime_runtime.Engine.shapes_of_args compiled.Pipeline.cp_kernel
            [ input ]
        in
        { kb = b; compiled; shapes; scalars; input; expected = b.B.reference input })
      Registry.workloads
  in
  let pipelines =
    List.map
      (fun (name, count, _, _) ->
        let b = Option.get (Registry.find name) in
        { pname = name; stages = probe_pipeline b ~count })
      Wl_engine.sizing
  in
  (kernels, pipelines)

(* Traced only: the device model alone, priced on the winner. *)
let time_model d (kc : kernel_case) (st : Lime_rewrite.Rewrite.state) =
  let k = st.Lime_rewrite.Rewrite.st_kernel in
  let decisions =
    Memopt.optimize ~affine_lanes:true st.Lime_rewrite.Rewrite.st_config k
  in
  let prof =
    Profile.profile ~hoist_invariant:true ~affine_lanes:true k decisions
      ~shapes:kc.shapes ~scalars:kc.scalars
  in
  let out_shape =
    match k.Kernel.k_ret with
    | Ir.TArr aty ->
        Some
          (Array.of_list
             (List.map
                (function
                  | Ir.DFixed n -> n
                  | Ir.DDyn -> int_of_float prof.Profile.p_last_parfor_items)
                aty.Ir.dims))
    | _ -> None
  in
  let bindings =
    Gpusim.Autotune.bindings_of k decisions ~shapes:kc.shapes ~out_shape
  in
  let reps = 20 in
  span "gpusim.model"
    ~attrs:(fun () -> [ ("evals", float_of_int reps) ])
    (fun () ->
      for _ = 1 to reps do
        ignore (Model.kernel_time_ex d prof bindings)
      done)

(* F1: the OpenCL of TMatMul's kernel writes its per-row result into a
   [_resN] buffer it never declares. *)
let f1 (r : Clcheck.result) =
  List.exists
    (fun (i : Clcheck.issue) ->
      String.starts_with ~prefix:"identifier '_res" i.Clcheck.is_msg)
    r.Clcheck.issues

let ref_fault = "winning kernel disagrees with Bench_def.reference on input_small"
let cl_fault = "rescheduled OpenCL fails Clcheck"

(* The checks of a winning kernel depend only on the kernel, so they are
   made once per distinct (program, sequence); Clcheck goes first, as it
   is the cheaper. *)
let kernel_verdicts : (string * string list, verdict) Hashtbl.t =
  Hashtbl.create 64

let judge_kernel (kc : kernel_case) (best : RSearch.candidate) : verdict =
  let seq = best.RSearch.sc_sequence in
  let st = best.RSearch.sc_state in
  let key = (kc.kb.B.name, seq) in
  match Hashtbl.find_opt kernel_verdicts key with
  | Some v -> v
  | None ->
      let opencl =
        lazy
          (Clcheck.check
             (Pipeline.reschedule kc.compiled ~schedule:seq
                st.Lime_rewrite.Rewrite.st_kernel
                st.Lime_rewrite.Rewrite.st_config)
               .Pipeline.cp_opencl)
      in
      let verdict =
        checks
          [
            (cl_fault, fun () -> Clcheck.ok (Lazy.force opencl));
            ( ref_fault,
              fun () ->
                close
                  (Lime_fuzz.Oracle.run_kernel
                     st.Lime_rewrite.Rewrite.st_kernel kc.input)
                  (reference_value kc.expected) );
          ]
      in
      let unrolled = List.exists (String.starts_with ~prefix:"unroll") seq in
      let v =
        match verdict with
        | Fail f when f = cl_fault && f1 (Lazy.force opencl) ->
            Fail ("F1: " ^ f)
        | Fail f when unrolled -> Fail ("F2: " ^ f ^ " after unroll")
        | v -> v
      in
      Hashtbl.replace kernel_verdicts key v;
      v

let judge d (kc : kernel_case) (o : RSearch.outcome) : verdict =
  let best = o.RSearch.so_best in
  match
    checks
      [
        ( "beam winner models slower than the best Fig 8 sequence",
          fun () ->
            best.RSearch.sc_time_s
            <= (snd o.RSearch.so_fig8_best).RSearch.sc_time_s +. 1e-15 );
        ( "Search.replay of the winning sequence gives another time",
          fun () ->
            match
              RSearch.replay d kc.compiled.Pipeline.cp_kernel
                best.RSearch.sc_sequence ~shapes:kc.shapes ~scalars:kc.scalars
            with
            | Ok c ->
                c.RSearch.sc_time_s = reference_float best.RSearch.sc_time_s
            | Error _ -> false );
      ]
  with
  | Pass -> judge_kernel kc best
  | v -> v

(* The verdict on one winner is computed once per distinct (program,
   device, sequence, modelled time). *)
let verdicts : (string * string * string list * float, verdict) Hashtbl.t =
  Hashtbl.create 64

let rewrite_op d (kc : kernel_case) : op =
  {
    label = Printf.sprintf "rewrite search %s on %s" kc.kb.B.name d.Device.name;
    run =
      (fun () ->
        let o =
          span "rewrite.search"
            ~attrs:(fun o -> [ ("evals", float_of_int o.RSearch.so_evals) ])
            (fun () ->
              RSearch.search d kc.compiled.Pipeline.cp_kernel ~shapes:kc.shapes
                ~scalars:kc.scalars)
        in
        fun () ->
          let best = o.RSearch.so_best in
          if traced () then time_model d kc best.RSearch.sc_state;
          let key =
            (kc.kb.B.name, d.Device.name, best.RSearch.sc_sequence,
             best.RSearch.sc_time_s)
          in
          match Hashtbl.find_opt verdicts key with
          | Some v -> v
          | None ->
              let v = judge d kc o in
              Hashtbl.replace verdicts key v;
              v);
  }

let sched_op (pc : pipeline_case) ~firings : op =
  {
    label = Printf.sprintf "placement search %s, %d firings" pc.pname firings;
    run =
      (fun () ->
        let o =
          span "sched.search"
            ~attrs:(fun o -> [ ("evals", float_of_int o.SSearch.po_evals) ])
            (fun () -> SSearch.search ~firings pc.stages)
        in
        fun () ->
          let best = o.SSearch.po_best in
          checks
            [
              ( "placement models slower than the best single device",
                fun () ->
                  best.SSearch.pc_time_s
                  <= (snd o.SSearch.po_best_single).SSearch.pc_time_s +. 1e-15
              );
              ( "Search.replay of the placement gives another time",
                fun () ->
                  match
                    SSearch.replay ~firings pc.stages best.SSearch.pc_placement
                  with
                  | Ok c ->
                      c.SSearch.pc_time_s
                      = reference_float best.SSearch.pc_time_s
                  | Error _ -> false );
            ]);
  }

(* Four rounds, cycled.  Round k holds every kernel's rewrite search,
   kernel i on device (i + k) mod 4, each followed by placement searches
   over every probed pipeline, so that placement searches are ten in
   eleven operations.  Every round holds the same faulty searches
   (TMatMul for F1, RPES and Crypt for F2), so the failed share does not
   depend on where a run stops, and the rounds cost about the same.  The
   seed draws the order within each round. *)
let rounds ~seed (kernels, pipelines) =
  let rng = Lime_support.Prng.create (seed lxor 0x74756e65) in
  let nd = List.length devices and nf = List.length firings in
  List.init nd (fun k ->
      let rewrites =
        Array.of_list
          (List.mapi
             (fun i kc -> rewrite_op (List.nth devices ((i + k) mod nd)) kc)
             kernels)
      in
      Lime_support.Prng.shuffle_in_place rng rewrites;
      Array.to_list rewrites
      |> List.mapi (fun i r ->
             let placed =
               List.mapi
                 (fun j pc ->
                   sched_op pc ~firings:(List.nth firings ((i + j) mod nf)))
                 pipelines
               |> Array.of_list
             in
             Lime_support.Prng.shuffle_in_place rng placed;
             r :: Array.to_list placed)
      |> List.concat)
