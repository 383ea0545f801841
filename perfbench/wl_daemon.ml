(* compile-daemon: one client connected to a `limec --daemon` child, the
   path a build tool takes.  Requests are drawn Zipf-wise from a pool of
   registry sources under every daemon config name plus generated
   programs; the daemon's cache holds fewer entries than the pool, so the
   head of the distribution hits and the tail compiles. *)

open Bench_util
module B = Lime_benchmarks.Bench_def
module Registry = Lime_benchmarks.Registry
module Pipeline = Lime_gpu.Pipeline
module Memopt = Lime_gpu.Memopt
module Clcheck = Lime_gpu.Clcheck
module Client = Lime_server.Client
module Wire = Lime_server.Wire
module Gen = Lime_fuzz.Gen

(* The daemon config names (Server.configs), each a request parameter. *)
let config_names =
  [
    "global"; "global+vec"; "local"; "local+pad"; "local+pad+vec";
    "constant"; "constant+vec"; "texture"; "all";
  ]

(* The generated programs come from one fixed corpus: their compile cost
   is heavy-tailed (one program of this corpus is 53 KB of source), so a
   corpus drawn per seed would move every metric with the seed. *)
let corpus_seed = 1
let fuzz_items = 45
let cache_capacity = 48
let zipf_s = 1.1

(* requests per round for the rank-1 registry item; rank r gets
   max 1 (round (zipf_head / r^zipf_s)) *)
let zipf_head = 300.0

type item = {
  name : string;
  worker : string;
  source : string;
  config : string;
  expected : (string * string) Lazy.t;
      (* in-process Pipeline.compile: OpenCL and placements *)
  opencl_ok : (bool * bool) Lazy.t;  (* Clcheck of it, and whether F1 *)
}

type t = {
  pid : int;
  sock : string;
  client : Client.t;
  registry : item array;  (* by popularity, rank 1 first *)
  fuzz : item list;
}

let make_item ~name ~worker ~source ~config =
  let expected =
    lazy
      (let c =
         Pipeline.compile
           ~config:(Option.get (Lime_server.Server.config_of_name config))
           ~name ~worker source
       in
       (c.Pipeline.cp_opencl, Memopt.describe c.Pipeline.cp_decisions))
  in
  let opencl_ok =
    lazy
      (let r = Clcheck.check (fst (Lazy.force expected)) in
       (Clcheck.ok r, Wl_tune.f1 r))
  in
  { name; worker; source; config; expected; opencl_ok }

(* The pool: registry items in a fixed popularity order, then the
   generated programs, each requested once a round — new code a build
   tool has not seen. *)
let pool () =
  let registry =
    List.concat_map
      (fun (b : B.t) ->
        List.map
          (fun config ->
            make_item ~name:b.B.name ~worker:b.B.worker ~source:b.B.source
              ~config)
          config_names)
      Registry.workloads
    |> Array.of_list
  in
  Lime_support.Prng.shuffle_in_place (Lime_support.Prng.create 0x706f6f6c)
    registry;
  let fuzz =
    Gen.corpus ~seed:corpus_seed fuzz_items
    |> List.mapi (fun i p ->
           List.map
             (fun worker ->
               make_item ~name:(Printf.sprintf "fuzz-%d" i) ~worker
                 ~source:(Gen.to_source p) ~config:"all")
             (Gen.workers p))
    |> List.concat
    |> List.filteri (fun i _ -> i < fuzz_items)
  in
  (registry, fuzz)

let spawn ~limec ~dir ~sock =
  let log =
    Unix.openfile
      (Filename.concat dir "limed.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process limec
      [|
        limec; "--daemon"; sock; "--jobs"; "1"; "--cache-capacity";
        string_of_int cache_capacity;
      |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  pid

let rec wait_socket ~pid ~sock ~deadline =
  let retry () =
    if now () > deadline then failwith "the daemon did not open its socket";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "the daemon exited during start-up");
    Unix.sleepf 0.002;
    wait_socket ~pid ~sock ~deadline
  in
  if Sys.file_exists sock then
    match Client.connect sock with Ok c -> c | Error _ -> retry ()
  else retry ()

let starts = ref 0

(* daemons still running, stopped at exit whatever ends the run *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Set-up: start the daemon and wait for its socket, then compile the
   pool in-process, the reference the replies are checked against. *)
let setup ~limec ~dir =
  incr starts;
  let sock =
    Filename.concat dir
      (Printf.sprintf "limed-%d-%d.sock" (Unix.getpid ()) !starts)
  in
  let pid = spawn ~limec ~dir ~sock in
  live := pid :: !live;
  let client = wait_socket ~pid ~sock ~deadline:(now () +. 60.0) in
  let registry, fuzz = pool () in
  Array.iter (fun it -> ignore (Lazy.force it.expected)) registry;
  List.iter (fun it -> ignore (Lazy.force it.expected)) fuzz;
  { pid; sock; client; registry; fuzz }

let pid t = t.pid

let stop t =
  Client.close t.client;
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] t.pid);
  live := List.filter (( <> ) t.pid) !live;
  if Sys.file_exists t.sock then Sys.remove t.sock

(* ------------------------------------------------------------------ *)
(* Traced only: the layers of a compile, replayed in-process           *)
(* ------------------------------------------------------------------ *)

let replay_layers (it : item) =
  let name = it.name and src = it.source in
  ignore (span "frontend.lex" (fun () -> Lime_frontend.Lexer.tokenize ~name src));
  let ast =
    span_alloc "frontend.parse" (fun () ->
        Lime_frontend.Parser.program_of_string ~name src)
  in
  let tp =
    span "typecheck.check" (fun () -> Lime_typecheck.Check.check_program ast)
  in
  let md = span "ir.lower" (fun () -> Lime_ir.Lower.lower_program tp) in
  let k =
    span "core.extract" (fun () -> Lime_gpu.Kernel.extract md ~worker:it.worker)
  in
  let k = span "core.simplify" (fun () -> Lime_gpu.Simplify.kernel k) in
  let config = Option.get (Lime_server.Server.config_of_name it.config) in
  let d = span "core.memopt" (fun () -> Memopt.optimize config k) in
  ignore (span "core.codegen" (fun () -> Lime_gpu.Opencl.generate k d))

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let op t (it : item) : op =
  {
    label = Printf.sprintf "compile %s %s [%s]" it.name it.worker it.config;
    run =
      (fun () ->
        let reply =
          span "server.roundtrip"
            ~attrs:(function
              | Ok a ->
                  [ ("hit", if a.Wire.ar_origin = "compiled" then 0.0 else 1.0) ]
              | Error _ -> [])
            (fun () ->
              Client.compile t.client ~config:it.config ~name:it.name
                ~worker:it.worker it.source)
        in
        fun () ->
          match reply with
          | Error f -> Fail ("daemon error: " ^ Client.failure_to_string f)
          | Ok a ->
              if traced () then begin
                ignore
                  (span "service.digest" (fun () ->
                       Lime_service.Digest.of_request
                         ~config:
                           (Option.get
                              (Lime_server.Server.config_of_name it.config))
                         ~worker:it.worker it.source));
                if a.Wire.ar_origin = "compiled" then replay_layers it
              end;
              let opencl, placements = Lazy.force it.expected in
              checks
                [
                  ( "reply differs from an in-process Pipeline.compile",
                    fun () ->
                      a.Wire.ar_opencl = reference_string opencl
                      && a.Wire.ar_placements = placements );
                  ( (if snd (Lazy.force it.opencl_ok) then
                       "F1: OpenCL fails Clcheck (undeclared _res buffer)"
                     else "OpenCL fails Clcheck"),
                    fun () -> fst (Lazy.force it.opencl_ok) );
                ]);
  }

(* A round: registry rank r is requested max 1 (round (zipf_head /
   r^zipf_s)) times and every generated program once, in an order
   shuffled by the seed. *)
let round ~seed t =
  let quota i =
    max 1 (int_of_float (Float.round (zipf_head /. (float_of_int (i + 1) ** zipf_s))))
  in
  let registry =
    List.concat
      (List.mapi
         (fun i it -> List.init (quota i) (fun _ -> op t it))
         (Array.to_list t.registry))
  in
  let ops = Array.of_list (registry @ List.map (op t) t.fuzz) in
  Lime_support.Prng.shuffle_in_place
    (Lime_support.Prng.create (seed lxor 0x726571))
    ops;
  Array.to_list ops

(* ------------------------------------------------------------------ *)
(* The daemon's own view of a traced pass                              *)
(* ------------------------------------------------------------------ *)

let sample text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ n; v ] when n = name -> float_of_string_opt v
         | _ -> None)
  |> Option.value ~default:0.0

let server_totals t =
  match Client.stats t.client with
  | Error f -> failwith (Client.failure_to_string f)
  | Ok text ->
      List.map (sample text)
        [
          "lime_server_request_seconds_sum";
          "lime_server_request_seconds_count";
          "lime_server_queue_wait_seconds_sum";
          "lime_server_queue_wait_seconds_count";
        ]

let observe t () =
  let before = server_totals t in
  fun () ->
    match List.map2 ( -. ) (server_totals t) before with
    | [ req; nreq; wait; nwait ] ->
        set_direct "server.request_us" (req /. nreq *. 1e6);
        set_direct "server.queue_wait_us" (wait /. nwait *. 1e6)
    | _ -> assert false
