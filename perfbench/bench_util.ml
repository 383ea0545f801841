(* Shared machinery of the workloads: the closed loop and its output
   checks, latency statistics, the span-derived per-layer table, and the
   result line. *)

module Trace = Lime_service.Trace
module Value = Lime_ir.Value

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Operations and their checks                                         *)
(* ------------------------------------------------------------------ *)

type verdict = Pass | Fail of string  (** the fault the output hit *)

type op = {
  label : string;  (** the operation's input, for the failure log *)
  run : unit -> unit -> verdict;
      (** does the timed work and returns the output check, which the
          loop calls after the clock has stopped *)
}

(* --selftest: every independent reference is perturbed before it is
   compared, so a check that compares anything must fail. *)
let selftest = ref false

(* [Lime_fuzz.Oracle.nudge] for every value kind a reference can take:
   one is added to a scalar, or to an array's first element. *)
let nudge (v : Value.t) : Value.t =
  let bump = function
    | Value.VInt n -> Value.VInt (n + 1)
    | Value.VLong n -> Value.VLong (Int64.succ n)
    | Value.VFloat f -> Value.VFloat (f +. 1.0)
    | Value.VDouble f -> Value.VDouble (f +. 1.0)
    | v -> v
  in
  match v with
  | Value.VArr a when Value.elem_count a.Value.shape > 0 ->
      let a' = Value.deep_copy a in
      let first = Array.make (Value.rank a') 0 in
      Value.set_scalar a' first (bump (Value.get_scalar a' first));
      Value.VArr a'
  | v -> bump v

let reference_value v = if !selftest then nudge v else v
let reference_float f = if !selftest then f +. 1.0 else f

let reference_string s =
  if !selftest then s ^ "\n" else s

let bitexact a b = Value.approx_equal ~rtol:0.0 ~atol:0.0 a b

(* the tolerance of `bench validate` *)
let close a b = Value.approx_equal ~rtol:2e-4 ~atol:1e-5 a b

(* Run the named checks in order; the first that fails names the fault. *)
let checks (cs : (string * (unit -> bool)) list) : verdict =
  match List.find_opt (fun (_, ok) -> not (ok ())) cs with
  | None -> Pass
  | Some (fault, _) -> Fail fault

(* ------------------------------------------------------------------ *)
(* Tracing: spans around the calls into each layer                     *)
(* ------------------------------------------------------------------ *)

let tracer =
  let t = Trace.create ~clock:Unix.gettimeofday () in
  Trace.set_enabled t false;
  t

let traced () = Trace.enabled tracer
let attr_float f = Printf.sprintf "%.17g" f

(* [span name f] records [f ()] as a span of the benchmark's tracer;
   [attrs] turns the result into numeric span attributes.  With tracing
   off it is [f ()]. *)
let span ?(attrs = fun _ -> []) name f =
  if not (traced ()) then f ()
  else begin
    Trace.begin_span tracer ~cat:"perfbench" name;
    match f () with
    | v ->
        Trace.end_span tracer
          ~args:(List.map (fun (k, x) -> (k, attr_float x)) (attrs v))
          name;
        v
    | exception e ->
        Trace.end_span tracer name;
        raise e
  end

(* minor-heap words allocated by [f ()], as a span attribute *)
let span_alloc ?(attrs = fun _ -> []) name f =
  span name
    ~attrs:(fun (v, w) -> ("alloc_w", w) :: attrs v)
    (fun () ->
      let w0 = Gc.minor_words () in
      let v = f () in
      (v, Gc.minor_words () -. w0))
  |> fst

(* Per-layer aggregate of the spans: count, total microseconds, and the
   sum of every numeric attribute. *)
type layer = {
  mutable n : int;
  mutable us : float;
  sums : (string, float) Hashtbl.t;
}

let layers : (string, layer) Hashtbl.t = Hashtbl.create 32

let absorb (spans : Trace.span list) =
  List.iter
    (fun (sp : Trace.span) ->
      if sp.Trace.sp_end_us >= 0.0 then begin
        let l =
          match Hashtbl.find_opt layers sp.Trace.sp_name with
          | Some l -> l
          | None ->
              let l = { n = 0; us = 0.0; sums = Hashtbl.create 4 } in
              Hashtbl.replace layers sp.Trace.sp_name l;
              l
        in
        l.n <- l.n + 1;
        l.us <- l.us +. (sp.Trace.sp_end_us -. sp.Trace.sp_begin_us);
        List.iter
          (fun (k, v) ->
            match float_of_string_opt v with
            | Some x ->
                Hashtbl.replace l.sums k
                  (x +. Option.value ~default:0.0 (Hashtbl.find_opt l.sums k))
            | None -> ())
          sp.Trace.sp_args
      end)
    spans

(* Values measured outside spans (the daemon's own exposition). *)
let direct : (string, float) Hashtbl.t = Hashtbl.create 8
let set_direct name v = Hashtbl.replace direct name v

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l when l.n > 0 -> l
  | _ -> failwith ("no span recorded for layer " ^ name)

let mean_us name =
  let l = layer name in
  l.us /. float_of_int l.n

let sum_attr name key =
  Option.value ~default:0.0 (Hashtbl.find_opt (layer name).sums key)

let per_call name key = sum_attr name key /. float_of_int (layer name).n

(* attribute sum per second of the layer's span time *)
let per_second name key = sum_attr name key /. ((layer name).us *. 1e-6)

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type gc_delta = { alloc_words : float; minor : int; major : int }

let gc_snapshot () =
  let s = Gc.quick_stat () in
  ( s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words,
    s.Gc.minor_collections,
    s.Gc.major_collections )

type result = {
  lats : float array;  (** seconds, one per attempted operation *)
  passed : int;
  failed : int;
  busy_s : float;  (** summed operation latency: the timed interval *)
  rounds : int;
  gc : gc_delta;
}

(* failures are logged once per distinct (input, fault), counted at the end *)
let failures : (string * string, int ref) Hashtbl.t = Hashtbl.create 8

let log_failure ~workload label fault =
  match Hashtbl.find_opt failures (label, fault) with
  | Some c -> incr c
  | None ->
      Hashtbl.replace failures (label, fault) (ref 1);
      Printf.eprintf "FAILED [%s] %s: %s\n%!" workload label fault

let reset_failure_counts () = Hashtbl.iter (fun _ c -> c := 0) failures

let report_failures () =
  Hashtbl.iter
    (fun (label, fault) c ->
      if !c > 0 then Printf.eprintf "  %6d x %s: %s\n" !c label fault)
    failures

(* Whole rounds, taken in turn from [cycle], until the summed operation
   time reaches [seconds] ([max_rounds] caps it).  While tracing, the
   spans of each operation, its check included, are absorbed into the
   layer table. *)
let run_loop ~workload ?(max_rounds = max_int) ~seconds (cycle : op list list)
    : result =
  let lats = ref [] and passed = ref 0 and failed = ref 0 in
  let busy = ref 0.0 and rounds = ref 0 in
  let w0, mi0, ma0 = gc_snapshot () in
  while !busy < seconds && !rounds < max_rounds do
    let round = List.nth cycle (!rounds mod List.length cycle) in
    List.iter
      (fun op ->
        let attempt () =
          let t0 = now () in
          let check = op.run () in
          let dt = now () -. t0 in
          (dt, check ())
        in
        let dt, verdict =
          if traced () then begin
            let r, spans = Trace.collect tracer attempt in
            absorb spans;
            r
          end
          else attempt ()
        in
        busy := !busy +. dt;
        lats := dt :: !lats;
        match verdict with
        | Pass -> incr passed
        | Fail fault ->
            incr failed;
            log_failure ~workload op.label fault)
      round;
    incr rounds
  done;
  let w1, mi1, ma1 = gc_snapshot () in
  {
    lats = Array.of_list !lats;
    passed = !passed;
    failed = !failed;
    busy_s = !busy;
    rounds = !rounds;
    gc = { alloc_words = w1 -. w0; minor = mi1 - mi0; major = ma1 - ma0 };
  }

(* ------------------------------------------------------------------ *)
(* Statistics and the result line                                      *)
(* ------------------------------------------------------------------ *)

(* nearest-rank percentile, q in (0, 1] *)
let percentile (xs : float array) q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

let median_of_list l = median (Array.of_list l)

(* VmHWM of a process, in MB *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  let line =
    In_channel.with_open_text path In_channel.input_lines
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

let json_number f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else failwith "non-finite metric"

let print_result ~correct ~attempted ~failed
    (metrics : (string * float * string) list) =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)
