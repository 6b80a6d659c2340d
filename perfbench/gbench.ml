(* One benchmark operation per invocation.

   [run.py] drives this executable: it starts one process per operation
   (so every operation starts with an empty in-process native memo and
   its own resident-memory high-water mark), then aggregates what each
   process prints — a single JSON object on the last line of stdout.

   Everything is driven through the library's public API, exactly as a
   user would call it.  With [--trace FILE] the process also records a
   span around each call it makes into a layer and writes them as Chrome
   trace-event JSON; stages the public pipeline runs as one call
   (individual passes, partitioning, C emission) are then repeated on
   their own, after the operation's end-to-end timing has stopped. *)

module Bits = Gsim_bits.Bits
module Circuit = Gsim_ir.Circuit
module Gsim = Gsim_core.Gsim
module Compile = Gsim.Compile
module Sim = Gsim_engine.Sim
module Counters = Gsim_engine.Counters
module Native = Gsim_engine.Native
module Designs = Gsim_designs.Designs
module Stu_core = Gsim_designs.Stu_core
module Programs = Gsim_designs.Programs
module Isa = Gsim_designs.Isa
module Pass = Gsim_passes.Pass
module Pipeline = Gsim_passes.Pipeline
module Partition = Gsim_partition.Partition
module Emit_c = Gsim_emit.Emit_c
module Lexer = Gsim_firrtl.Lexer
module Parser = Gsim_firrtl.Parser
module Elaborate = Gsim_firrtl.Elaborate
module Firrtl_emit = Gsim_firrtl.Firrtl_emit
module SP = Gsim_server.Protocol
module Client = Gsim_server.Client
module Daemon = Gsim_server.Daemon
module Admission = Gsim_server.Admission

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec json_to_buffer b = function
  | Num f -> Buffer.add_string b (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        json_to_buffer b v)
      l;
    Buffer.add_char b ']'
  | Obj l ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        json_to_buffer b (Str k);
        Buffer.add_char b ':';
        json_to_buffer b v)
      l;
    Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 4096 in
  json_to_buffer b j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Nested spans named [layer.function], kept in memory and written once
   at exit.  Client threads of the gsimd workload record concurrently,
   so each thread keeps its own stack of open spans. *)
module Trace = struct
  type span = {
    id : int;
    parent : int;  (* 0 = root *)
    name : string;
    op : int;
    tid : int;
    t0 : float;
    t1 : float;
  }

  let on = ref false
  let op = ref 0
  let spans : span list ref = ref []
  let next = ref 0
  let lock = Mutex.create ()
  let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4
  let notes : (int, (string * string) list) Hashtbl.t = Hashtbl.create 16

  let span name f =
    if not !on then f ()
    else begin
      let tid = Thread.id (Thread.self ()) in
      let id, parent =
        Mutex.protect lock (fun () ->
            incr next;
            let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
            Hashtbl.replace stacks tid (!next :: stack);
            (!next, match stack with p :: _ -> p | [] -> 0))
      in
      let t0 = now () in
      Fun.protect f ~finally:(fun () ->
          let t1 = now () in
          Mutex.protect lock (fun () ->
              (match Hashtbl.find_opt stacks tid with
               | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
               | _ -> ());
              spans := { id; parent; name; op = !op; tid; t0; t1 } :: !spans))
    end

  (* Attach a key/value to the innermost open span of this thread. *)
  let note key value =
    if !on then
      Mutex.protect lock (fun () ->
          match Hashtbl.find_opt stacks (Thread.id (Thread.self ())) with
          | Some (id :: _) ->
            Hashtbl.replace notes id
              ((key, value) :: Option.value (Hashtbl.find_opt notes id) ~default:[])
          | _ -> ())

  let layer_of name =
    match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

  (* Sum of durations of the spans with this exact name. *)
  let total name =
    List.fold_left (fun a s -> if s.name = name then a +. (s.t1 -. s.t0) else a) 0. !spans

  (* A layer's self time: its spans' durations minus the time their
     direct children cover. *)
  let self_times () =
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent <> 0 then
          Hashtbl.replace child s.parent
            ((s.t1 -. s.t0) +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
      !spans;
    let by_layer = Hashtbl.create 8 in
    List.iter
      (fun s ->
        let own = s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0. in
        let l = layer_of s.name in
        Hashtbl.replace by_layer l (own +. Option.value (Hashtbl.find_opt by_layer l) ~default:0.))
      !spans;
    by_layer

  let write path =
    let events =
      List.rev_map
        (fun s ->
          let args =
            [ ("span", Int s.id); ("parent", Int s.parent); ("op", Int s.op) ]
            @ List.rev_map (fun (k, v) -> (k, Str v))
                (Option.value (Hashtbl.find_opt notes s.id) ~default:[])
          in
          Obj
            [
              ("name", Str s.name);
              ("cat", Str (layer_of s.name));
              ("ph", Str "X");
              ("ts", Num (s.t0 *. 1e6));
              ("dur", Num ((s.t1 -. s.t0) *. 1e6));
              ("pid", Int s.op);
              ("tid", Int s.tid);
              ("args", Obj args);
            ])
        !spans
    in
    let oc = open_out_bin path in
    output_string oc (json_to_string (Obj [ ("traceEvents", Arr events) ]));
    close_out oc
end

let span = Trace.span

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                        *)
(* ------------------------------------------------------------------ *)

(* splitmix64: the workload inputs depend only on the seed. *)
let mix x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* A deterministic stream: [draw rng n] is uniform in [0, n). *)
let rng_of seed stream = ref (mix (Int64.add (Int64.of_int seed) (Int64.mul 7919L (Int64.of_int stream))))

let draw rng n =
  rng := mix !rng;
  Int64.to_int (Int64.unsigned_rem !rng (Int64.of_int n))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = draw rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                  *)
(* ------------------------------------------------------------------ *)

(* Peak resident set of this process (VmHWM).  [cc] runs in child
   processes, so it is excluded. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.
      | l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        else go ()
    in
    let r = go () in
    close_in ic;
    r

let native_snapshot () =
  (Native.stats.Native.compiles, Native.stats.Native.disk_hits, Native.stats.Native.failures)

let native_delta (c0, d0, f0) =
  let c1, d1, f1 = native_snapshot () in
  [ ("engine.cc_runs", c1 - c0); ("engine.native_disk_hits", d1 - d0);
    ("engine.native_failures", f1 - f0) ]

let origin_string = function
  | Native.Memo_hit -> "memo"
  | Native.Disk_hit -> "disk"
  | Native.Compiled -> "compiled"

let one_line s = String.concat " " (String.split_on_char '\n' s)

let describe_exn = function
  | Failure m -> one_line m
  | e -> one_line (Printexc.to_string e)

(* Per-pass rewrite totals from a pipeline's outcomes. *)
let pass_names = [ "simplify"; "alias"; "dce"; "inline"; "extract"; "reset"; "bitsplit" ]

let rewrites_of outcomes =
  List.map
    (fun p ->
      ( Printf.sprintf "passes.%s_rewrites" p,
        List.fold_left
          (fun a (o : Pass.outcome) -> if o.Pass.outcome_pass = p then a + o.Pass.rewrites else a)
          0 outcomes ))
    pass_names

(* Run [Pipeline.plan level] on a copy of [circuit] through
   [Pass.run_fixpoint], exactly as [Pipeline.optimize] drives it, with
   every pass wrapped by [wrap].  Returns the optimized copy. *)
let run_plan level circuit wrap =
  let c = Circuit.copy circuit in
  List.iter
    (fun (s : Pipeline.stage) ->
      ignore
        (Pass.run_fixpoint ~max_rounds:s.Pipeline.stage_max_rounds
           (List.map wrap s.Pipeline.stage_passes) c))
    (Pipeline.plan level);
  c

(* The pipeline again with each [Pass.t.run] in a span: each pass timed
   alone. *)
let repeat_passes level circuit =
  run_plan level circuit (fun p ->
      { p with Pass.run = (fun c -> span ("passes." ^ p.Pass.pass_name) (fun () -> p.Pass.run c)) })

(* Where a failing [prepare] goes wrong: the first pass application after
   which [Circuit.validate] rejects the IR, and the pass that raises. *)
let diagnose_prepare level circuit =
  let invalid = ref None and raised = ref None in
  let watched (p : Pass.t) =
    let run c =
      match p.Pass.run c with
      | n ->
        (if !invalid = None then
           try Circuit.validate c with e -> invalid := Some (p.Pass.pass_name, describe_exn e));
        n
      | exception e ->
        raised := Some (p.Pass.pass_name, describe_exn e);
        raise e
    in
    { p with Pass.run }
  in
  (try ignore (run_plan level circuit watched) with _ -> ());
  let describe what = function
    | Some (p, msg) -> Printf.sprintf "%s pass %s: %s" what p msg
    | None -> what ^ " no pass"
  in
  describe "IR first invalid after" !invalid ^ "; " ^ describe "raised in" !raised

let counter_fields (c : Counters.t) =
  [ ("engine.cycles", c.Counters.cycles); ("engine.evals", c.Counters.evals);
    ("engine.exams", c.Counters.exams); ("engine.activations", c.Counters.activations);
    ("engine.reg_commits", c.Counters.reg_commits) ]

let add_counts a b =
  List.map (fun (k, v) -> (k, v + Option.value (List.assoc_opt k b) ~default:0)) a

(* ------------------------------------------------------------------ *)
(* Local workloads: cold-boom, warm-xiangshan                           *)
(* ------------------------------------------------------------------ *)

type local_spec = {
  design : Designs.design;
  programs : Isa.program list;  (** the operation's result: each to a checked halt *)
}

(* cold-boom: one coremark run to halt.  The seed picks the iteration
   count from a narrow range, so host time varies little across seeds. *)
let cold_boom_spec seed =
  let rng = rng_of seed 1 in
  { design = Designs.boom_like; programs = [ Programs.coremark ~iters:(20 + draw rng 2) () ] }

(* warm-xiangshan: a regression sweep — coremark, a boot-like flat
   profile and the six SPEC-like checkpoints, twice, in a seeded order;
   long enough that simulation outweighs set-up. *)
let warm_xiangshan_spec seed =
  let rng = rng_of seed 2 in
  let round phases =
    Programs.coremark ~iters:(20 + draw rng 2) ()
    :: Programs.linux_boot ~phases ()
    :: Programs.spec_checkpoints ()
  in
  { design = Designs.xiangshan_like; programs = shuffle rng (round 12 @ round 13) }

let dmem_size = Stu_core.default_config.Stu_core.dmem_depth

type golden = { g_regs : int array; g_retired : int }

let golden_of (p : Isa.program) =
  let regs, _, retired = Isa.reference_execute ~code:p.Isa.code ~data:p.Isa.data ~dmem_size () in
  { g_regs = regs; g_retired = retired }

(* The golden comparison of [Designs.check_against_golden], without
   re-running the program: final registers and retired count. *)
let check_golden sim (h : Stu_core.handles) (p : Isa.program) g =
  let retired = Bits.to_int_trunc (sim.Sim.peek h.Stu_core.instret) in
  if retired <> g.g_retired then
    Some (Printf.sprintf "%s: retired %d, golden %d" p.Isa.prog_name retired g.g_retired)
  else
    Array.to_list h.Stu_core.reg_nodes
    |> List.mapi (fun k id -> (k, id))
    |> List.find_map (fun (k, id) ->
           if id < 0 then None
           else
             let got = Bits.to_int_trunc (sim.Sim.peek id) in
             if got <> g.g_regs.(k) then
               Some (Printf.sprintf "%s: x%d = %d, golden %d" p.Isa.prog_name k got g.g_regs.(k))
             else None)

let local_op spec =
  let traced = !Trace.on in
  let goldens = span "designs.check" (fun () -> List.map golden_of spec.programs) in
  let native0 = native_snapshot () in
  let t_start = now () in
  let core = span "designs.build" (fun () -> spec.design.Designs.build ()) in
  let h = core.Stu_core.h in
  let source = span "core.hash" (fun () -> Compile.of_circuit core.Stu_core.circuit) in
  let plan = span "core.prepare" (fun () -> Compile.prepare Gsim.gsim source) in
  let circuit = Compile.plan_circuit plan in
  (* Traced runs time the native load on its own; [realize] then finds
     the unit in the process memo.  Untraced runs leave it inside
     [realize], where the program does it. *)
  let origin =
    if traced then
      span "engine.native_load" (fun () ->
          match Native.load circuit with
          | Some (_, o) ->
            Trace.note "origin" (origin_string o);
            origin_string o
          | None -> "unavailable")
    else ""
  in
  let realize () = span "core.realize" (fun () -> Compile.realize plan) in
  let first = realize () in
  let t_ready = now () in
  let step_s = ref 0. in
  let totals = ref (counter_fields (Counters.create ())) in
  let instret = ref 0 in
  let wrong = ref None in
  let backend = ref "" and cache = ref "" in
  (* Each program runs to a checked halt: the first on the engine set-up
     realized, later ones on fresh engines. *)
  let run i ((p : Isa.program), g) =
    let compiled = if i = 0 then first else realize () in
    Fun.protect ~finally:compiled.Gsim.destroy @@ fun () ->
    let sim = compiled.Gsim.sim in
    span "engine.load_program" (fun () -> Designs.load_program sim h p);
    let ts = now () in
    let cycles = span "engine.run" (fun () -> Designs.run_program sim h) in
    step_s := !step_s +. (now () -. ts);
    let mismatch = span "designs.compare" (fun () -> check_golden sim h p g) in
    let c = sim.Sim.counters () in
    assert (c.Counters.cycles = cycles);
    backend := c.Counters.backend;
    cache := c.Counters.native_cache;
    totals := add_counts !totals (counter_fields c);
    instret := !instret + Bits.to_int_trunc (sim.Sim.peek h.Stu_core.instret);
    if !wrong = None then wrong := mismatch
  in
  List.iteri run (List.combine spec.programs goldens);
  let t_end = now () in
  let counts =
    !totals @ [ ("engine.instret", !instret) ]
    @ native_delta native0
    @ rewrites_of first.Gsim.outcomes
    @ [ ("passes.nodes_after", Circuit.node_count circuit);
        ("partition.supernodes", first.Gsim.supernodes) ]
  in
  let layers =
    if not traced then []
    else begin
      (* Stages the pipeline runs inside one public call, repeated alone. *)
      let optimized =
        span "passes.pipeline" (fun () -> repeat_passes Gsim.gsim.Gsim.opt_level core.Stu_core.circuit)
      in
      ignore (span "partition.gsim" (fun () -> Partition.gsim optimized ~max_size:Gsim.gsim.Gsim.max_supernode));
      let emitted = span "emit.c" (fun () -> Emit_c.emit circuit) in
      [ ("emit.c_bytes", Num (float_of_int (String.length emitted.Emit_c.source)));
        ("emit.compiled_nodes", Num (float_of_int emitted.Emit_c.compiled_nodes)) ]
    end
  in
  Obj
    ([
       ("ok", Bool (!wrong = None));
       ("wrong", Bool (!wrong <> None));
       ("error", Str (Option.value !wrong ~default:""));
       ("setup_s", Num (t_ready -. t_start));
       ("result_s", Num (t_end -. t_start));
       ("step_s", Num !step_s);
       ("backend", Str !backend);
       ("native_cache", Str !cache);
       ("origin", Str origin);
       ("total_nodes", Int (Circuit.node_count circuit));
       ("counts", Obj (List.map (fun (k, v) -> (k, Int v)) counts));
       ("layer_values", Obj layers);
     ])

(* Fill the warm native cache: one full set-up of the design. *)
let prime spec =
  let core = spec.design.Designs.build () in
  let plan = Compile.prepare Gsim.gsim (Compile.of_circuit core.Stu_core.circuit) in
  match Native.load (Compile.plan_circuit plan) with
  | Some (_, o) -> Obj [ ("ok", Bool true); ("origin", Str (origin_string o)) ]
  | None -> Obj [ ("ok", Bool false); ("error", Str "native backend unavailable") ]

(* ------------------------------------------------------------------ *)
(* fir-boom: BOOM-like loaded as FIRRTL text                           *)
(* ------------------------------------------------------------------ *)

let fir_cycles seed = 150 + draw (rng_of seed 3) 100

let boom_firrtl () = (Firrtl_emit.emit (Designs.boom_like.Designs.build ()).Stu_core.circuit).Firrtl_emit.text

let outputs_of sim circuit =
  Circuit.outputs circuit
  |> List.map (fun (n : Circuit.node) ->
         (n.Circuit.name, Format.asprintf "%a" Bits.pp (sim.Sim.peek n.Circuit.id)))

let run_text config text cycles =
  let source = Compile.source_of_string ~filename:"design.fir" text in
  let plan = Compile.prepare config source in
  let compiled = Compile.realize plan in
  Fun.protect ~finally:compiled.Gsim.destroy @@ fun () ->
  Sim.run compiled.Gsim.sim cycles;
  outputs_of compiled.Gsim.sim (Compile.plan_circuit plan)

(* The reference engine on the same text, computed once before timing. *)
let fir_reference seed =
  let out = run_text Gsim.reference (boom_firrtl ()) (fir_cycles seed) in
  Obj [ ("ok", Bool true); ("outputs", Obj (List.map (fun (k, v) -> (k, Str v)) out)) ]

let fir_op seed expected =
  let text = boom_firrtl () in
  let cycles = fir_cycles seed in
  let native0 = native_snapshot () in
  let t_start = now () in
  let source = span "core.source_of_string" (fun () -> Compile.source_of_string ~filename:"design.fir" text) in
  let outcome =
    match span "core.prepare" (fun () -> Compile.prepare Gsim.gsim source) with
    | exception e -> Error ("core.prepare: " ^ describe_exn e)
    | plan ->
      let compiled = span "core.realize" (fun () -> Compile.realize plan) in
      Fun.protect ~finally:compiled.Gsim.destroy @@ fun () ->
      let ready = now () in
      let sim = compiled.Gsim.sim in
      let ts = now () in
      span "engine.run" (fun () -> Sim.run sim cycles);
      let step = now () -. ts in
      let out = outputs_of sim (Compile.plan_circuit plan) in
      Ok (ready, step, out)
  in
  let t_end = now () in
  let firrtl_layers () =
    ignore (span "firrtl.lex" (fun () -> Lexer.tokenize text));
    let ast = span "firrtl.parse" (fun () -> Parser.parse_string text) in
    let r = span "firrtl.elaborate" (fun () -> Elaborate.elaborate ast) in
    [ ("firrtl.bytes", Num (float_of_int (String.length text)));
      ("firrtl.nodes", Num (float_of_int (Circuit.node_count r.Elaborate.circuit))) ]
  in
  let native = native_delta native0 in
  let counts extra = ("counts", Obj (List.map (fun (k, v) -> (k, Int v)) (native @ extra))) in
  let base = [ ("result_s", Num (t_end -. t_start)) ] in
  let layers = if !Trace.on then firrtl_layers () else [] in
  match outcome with
  | Error msg ->
    let diag = diagnose_prepare Gsim.gsim.Gsim.opt_level source.Compile.circuit in
    Obj
      ([ ("ok", Bool false); ("wrong", Bool false); ("error", Str (msg ^ " [" ^ diag ^ "]"));
         ("setup_s", Num (t_end -. t_start)); counts []; ("layer_values", Obj layers) ]
      @ base)
  | Ok (ready, step, out) ->
    let mismatch =
      List.find_map
        (fun (k, v) ->
          match List.assoc_opt k expected with
          | Some e when e = v -> None
          | Some e -> Some (Printf.sprintf "output %s = %s, reference %s" k v e)
          | None -> Some (Printf.sprintf "output %s missing from the reference" k))
        out
    in
    Obj
      ([ ("ok", Bool (mismatch = None)); ("wrong", Bool (mismatch <> None));
         ("error", Str (Option.value mismatch ~default:""));
         ("setup_s", Num (ready -. t_start)); ("step_s", Num step);
         counts [ ("engine.cycles", cycles) ]; ("layer_values", Obj layers) ]
      @ base)

(* ------------------------------------------------------------------ *)
(* gsimd-chain: a closed loop of clients against an in-process daemon  *)
(* ------------------------------------------------------------------ *)

(* The register chain [bench serve] sends: [stages] 32-bit registers,
   each [r_i <= xor(r_{i-1}, shr(r_i, 1))].  The salt only changes the
   reset values, so it makes a new design text (a plan-cache miss)
   without changing what the chain computes: reset is never asserted and
   registers power on at zero. *)
let chain_text ~salt stages =
  let b = Buffer.create (stages * 80) in
  Buffer.add_string b "circuit Chain :\n  module Chain :\n";
  Buffer.add_string b "    input clock : Clock\n";
  Buffer.add_string b "    input reset : UInt<1>\n";
  Buffer.add_string b "    input in : UInt<32>\n";
  Buffer.add_string b "    output out : UInt<32>\n\n";
  for i = 0 to stages - 1 do
    Buffer.add_string b
      (Printf.sprintf "    reg r%d : UInt<32>, clock with : (reset => (reset, UInt<32>(%d)))\n"
         i ((i + salt) land 0xffff));
    let src = if i = 0 then "in" else Printf.sprintf "r%d" (i - 1) in
    Buffer.add_string b (Printf.sprintf "    r%d <= xor(%s, shr(r%d, 1))\n" i src i)
  done;
  Buffer.add_string b (Printf.sprintf "    out <= r%d\n" (stages - 1));
  Buffer.contents b

(* The chain of [bench serve --quick]: 150 stages and one hot design.
   Jobs run 200 cycles rather than its 100, because a value needs
   [stages] cycles to reach [out]; before that [out] is 0 whatever [in]
   is, and the output check could not see a wrong answer.  Every 500th
   job misses the plan cache.  A miss also stalls one concurrent hit for
   its whole compile ([Native.load] holds its memo lock across [cc]), so
   0.4% of the jobs are slow: p99 stays among the hits and the misses are
   timed on their own. *)
let chain_stages = 150
let chain_cycles = 200
let chain_every = 500
let chain_pokes = 8   (* distinct [in] values *)

type chain_job = { salt : int; poke : int; miss : bool }

let chain_job_of job_opts { salt; poke; _ } =
  {
    SP.sj_filename = "chain.fir";
    sj_design = chain_text ~salt chain_stages;
    sj_opts = job_opts;
    sj_cycles = chain_cycles;
    sj_pokes = [ Printf.sprintf "in=%d" poke ];
    sj_token = None;
    sj_tenant = None;
    sj_deadline = 0.;
  }

(* The seeded job stream of one daemon lifetime ([part]): poke values
   and the first miss's position (among the first 100 jobs, so every
   lifetime has one) come from the seed.  A miss carries a salt no earlier
   job used, every other job the hot one. *)
let chain_stream seed part =
  let rng = rng_of seed (100 + part) in
  let hot = 1 + (1000 * (part + 1)) in
  let pokes = Array.init chain_pokes (fun _ -> 1 + draw rng 0x3fffffff) in
  let offset = draw rng 100 in
  let fresh = ref (100_000 * (part + 1)) in
  let index = ref 0 in
  let next () =
    let k = !index - offset in
    incr index;
    let poke = pokes.(draw rng chain_pokes) in
    if k >= 0 && k mod chain_every = 0 then begin
      incr fresh;
      { salt = !fresh; poke; miss = true }
    end
    else { salt = hot; poke; miss = false }
  in
  (hot, pokes, next)

(* Expected outputs: the reference engine on the same text, one run per
   poke value.  Any salt gives the same outputs (see [chain_text]). *)
let chain_expected hot pokes =
  let text = chain_text ~salt:hot chain_stages in
  let source = Compile.source_of_string ~filename:"chain.fir" text in
  let plan = Compile.prepare Gsim.reference source in
  let id = (Option.get (Circuit.find_node (Compile.plan_circuit plan) "in")).Circuit.id in
  Array.to_list pokes
  |> List.map (fun v ->
         let compiled = Compile.realize plan in
         let sim = compiled.Gsim.sim in
         Sim.poke_int sim id v;
         Sim.run sim chain_cycles;
         (v, outputs_of sim (Compile.plan_circuit plan)))

(* [Error (true, _)] is a wrong answer, [Error (false, _)] a failed job. *)
let check_reply expected job = function
  | SP.Sim_done r ->
    let want = List.assoc job.poke expected in
    if r.SP.sr_cycles <> chain_cycles then
      Error (true, Printf.sprintf "ran %d cycles, asked %d" r.SP.sr_cycles chain_cycles)
    else if r.SP.sr_outputs <> want then
      Error
        (true, Printf.sprintf "outputs %s, reference %s"
           (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) r.SP.sr_outputs))
           (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) want)))
    else Ok r
  | SP.Error_resp e -> Error (false, "error response: " ^ SP.error_code_to_string e.SP.ei_code ^ ": " ^ one_line e.SP.ei_message)
  | _ -> Error (false, "unexpected response")

let gsimd_op ~seed ~part ~seconds ~work =
  let job_opts = { SP.default_engine_opts with SP.eo_backend = "auto" } in
  let hot, pokes, next = chain_stream seed part in
  let expected = chain_expected hot pokes in
  let workers = max 1 (min 2 (Domain.recommended_domain_count ())) in
  let sock = Filename.concat work (Printf.sprintf "gsimd-%d.sock" part) in
  let address = SP.Unix_sock sock in
  let devnull = open_out "/dev/null" in
  let cfg =
    {
      (Daemon.default_config address) with
      Daemon.workers;
      spool = Some (Filename.concat work (Printf.sprintf "spool-%d" part));
      log = devnull;
    }
  in
  let fail_msgs = ref [] in
  let record_failure msg = if List.length !fail_msgs < 5 then fail_msgs := msg :: !fail_msgs in
  (* Set-up: daemon start until it has answered one job on the hot
     design (its plan and native unit are then in the daemon's caches). *)
  let t_start = now () in
  let server = Thread.create (fun () -> Daemon.serve cfg) () in
  let rec wait_ready n =
    if not (Sys.file_exists sock) then
      if n = 0 then failwith "gsimd did not start"
      else begin
        Thread.delay 0.001;
        wait_ready (n - 1)
      end
  in
  wait_ready 10_000;
  let setup_failed = ref 0 and setup_wrong = ref 0 in
  Client.with_connection address (fun c ->
      let job = { salt = hot; poke = pokes.(0); miss = false } in
      match check_reply expected job (Client.call c (SP.Sim (SP.Batch, chain_job_of job_opts job))) with
      | Ok _ -> ()
      | Error (bad, msg) ->
        incr setup_failed;
        if bad then incr setup_wrong;
        record_failure msg);
  let setup_s = now () -. t_start in
  (* The closed loop: each client sends its next job when the previous
     reply arrives. *)
  let lock = Mutex.create () in
  let lat = ref [] and miss_lat = ref [] in
  let cycles = ref 0 and attempted = ref 0 and failed = ref 0 and wrong = ref 0 in
  let compile_s = ref [] in
  let t_loop = now () in
  let deadline = t_loop +. seconds in
  let client () =
    Client.with_connection address (fun c ->
        let continue = ref true in
        while !continue do
          let job = Mutex.protect lock next in
          let req = SP.Sim (SP.Batch, chain_job_of job_opts job) in
          let t0 = now () in
          let reply = span "server.call" (fun () -> Client.call c req) in
          let dt = now () -. t0 in
          let checked = check_reply expected job reply in
          Mutex.protect lock (fun () ->
              incr attempted;
              (match checked with
               | Ok r ->
                 lat := dt :: !lat;
                 if job.miss then miss_lat := dt :: !miss_lat;
                 if not r.SP.sr_cache_hit then compile_s := r.SP.sr_compile_seconds :: !compile_s;
                 cycles := !cycles + r.SP.sr_cycles
               | Error (bad, msg) ->
                 incr failed;
                 if bad then incr wrong;
                 record_failure msg);
              if now () >= deadline then continue := false)
        done)
  in
  let clients = List.init 2 (fun _ -> Thread.create client ()) in
  List.iter Thread.join clients;
  let loop_s = now () -. t_loop in
  let st =
    match Client.with_connection address (fun c -> Client.call c SP.Status) with
    | SP.Status_ok s -> s
    | _ -> failwith "gsimd status failed"
  in
  (match Client.with_connection address (fun c -> Client.call c SP.Shutdown) with
   | SP.Shutting_down -> ()
   | _ -> failwith "gsimd shutdown failed");
  Thread.join server;
  close_out devnull;
  let layers =
    if not !Trace.on then []
    else begin
      (* Stages the daemon runs internally, repeated in-process on a
         fresh design text: the miss path, timed layer by layer. *)
      let fresh = { salt = 999_999 + part; poke = 1; miss = true } in
      let text = chain_text ~salt:fresh.salt chain_stages in
      let req = SP.Sim (SP.Batch, chain_job_of job_opts fresh) in
      let codec_reps = 20 in
      for _ = 1 to codec_reps do
        span "server.codec" (fun () -> ignore (SP.decode_request (SP.encode_request req)))
      done;
      ignore (span "firrtl.lex" (fun () -> Lexer.tokenize text));
      let ast = span "firrtl.parse" (fun () -> Parser.parse_string text) in
      let elab = span "firrtl.elaborate" (fun () -> Elaborate.elaborate ast) in
      let circuit = elab.Elaborate.circuit in
      ignore (span "server.admission" (fun () -> Admission.estimate circuit));
      let source = span "core.hash" (fun () -> Compile.of_circuit ?halt:elab.Elaborate.halt circuit) in
      let native0 = native_snapshot () in
      let plan = span "core.prepare" (fun () -> Compile.prepare Gsim.gsim source) in
      let optimized = Compile.plan_circuit plan in
      (match span "engine.native_load" (fun () -> Native.load optimized) with
       | Some (_, o) -> Trace.note "origin" (origin_string o)
       | None -> ());
      let compiled = span "core.realize" (fun () -> Compile.realize plan) in
      Fun.protect ~finally:compiled.Gsim.destroy (fun () ->
          let sim = compiled.Gsim.sim in
          Sim.poke_int sim (Option.get (Circuit.find_node optimized "in")).Circuit.id 1;
          span "engine.run" (fun () -> Sim.run sim chain_cycles);
          let c = sim.Sim.counters () in
          let again = span "passes.pipeline" (fun () -> repeat_passes Gsim.gsim.Gsim.opt_level circuit) in
          ignore (span "partition.gsim" (fun () -> Partition.gsim again ~max_size:Gsim.gsim.Gsim.max_supernode));
          let emitted = span "emit.c" (fun () -> Emit_c.emit optimized) in
          let num i = Num (float_of_int i) in
          [ ("firrtl.bytes", num (String.length text));
            ("firrtl.nodes", num (Circuit.node_count circuit));
            ("emit.c_bytes", num (String.length emitted.Emit_c.source));
            ("emit.compiled_nodes", num emitted.Emit_c.compiled_nodes);
            ("server.codec_us", Num (Trace.total "server.codec" /. float_of_int codec_reps *. 1e6));
            ("probe.total_nodes", num (Circuit.node_count optimized)) ]
          @ List.map (fun (k, v) -> ("probe." ^ k, num v))
              (counter_fields c @ native_delta native0 @ rewrites_of compiled.Gsim.outcomes
              @ [ ("partition.supernodes", compiled.Gsim.supernodes);
                  ("passes.nodes_after", Circuit.node_count optimized) ]))
    end
  in
  let failed_total = !failed + !setup_failed in
  Obj
    [
      ("ok", Bool (failed_total = 0));
      ("wrong", Bool (!wrong + !setup_wrong > 0));
      ("error", Str (String.concat "; " (List.rev !fail_msgs)));
      ("setup_s", Num setup_s);
      ("loop_s", Num loop_s);
      ("attempted", Int (!attempted + 1));
      ("failed", Int failed_total);
      ("cycles", Int !cycles);
      ("latency_s", Arr (List.rev_map (fun x -> Num x) !lat));
      ("miss_latency_s", Arr (List.rev_map (fun x -> Num x) !miss_lat));
      ("compile_s", Arr (List.rev_map (fun x -> Num x) !compile_s));
      ("status",
       Obj
         [ ("cache_hits", Int st.SP.st_cache_hits); ("cache_misses", Int st.SP.st_cache_misses);
           ("retries", Int st.SP.st_retries); ("shed", Int st.SP.st_shed);
           ("completed", Int st.SP.st_completed) ]);
      ("layer_values", Obj layers);
    ]

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let layer_times () =
  let names =
    [ "designs.build"; "designs.check"; "firrtl.lex"; "firrtl.parse"; "firrtl.elaborate";
      "core.hash"; "core.prepare"; "core.realize"; "partition.gsim"; "emit.c";
      "engine.native_load"; "engine.run"; "server.call"; "server.admission" ]
    @ List.map (fun p -> "passes." ^ p) pass_names
  in
  let selfs = Trace.self_times () in
  Obj
    (List.map (fun n -> (n, Num (Trace.total n))) names
    @ Hashtbl.fold (fun l v acc -> ("self." ^ l, Num v) :: acc) selfs [])

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let int_opt name d = match opt name args with Some v -> int_of_string v | None -> d in
  let seed = int_opt "--seed" 1 in
  let trace = opt "--trace" args in
  Trace.on := trace <> None;
  Trace.op := int_opt "--op" 0;
  let result =
    try
      match args with
      | "cold-boom" :: _ -> local_op (cold_boom_spec seed)
      | "warm-xiangshan" :: _ -> local_op (warm_xiangshan_spec seed)
      | "prime-xiangshan" :: _ -> prime (warm_xiangshan_spec seed)
      | "fir-reference" :: _ -> fir_reference seed
      | "fir-boom" :: _ ->
        let expected =
          match opt "--expect" args with
          | None -> failwith "fir-boom needs --expect FILE"
          | Some path ->
            let ic = open_in path in
            let rec lines acc =
              match input_line ic with
              | l -> (
                match String.index_opt l '=' with
                | Some i -> lines ((String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1)) :: acc)
                | None -> lines acc)
              | exception End_of_file -> List.rev acc
            in
            let r = lines [] in
            close_in ic;
            r
        in
        fir_op seed expected
      | "gsimd-chain" :: _ ->
        let seconds = match opt "--seconds" args with Some s -> float_of_string s | None -> 5. in
        let work = Option.value (opt "--work" args) ~default:"." in
        gsimd_op ~seed ~part:(int_opt "--part" 0) ~seconds ~work
      | _ ->
        prerr_endline
          "usage: gbench (cold-boom|warm-xiangshan|prime-xiangshan|fir-boom|fir-reference|gsimd-chain) --seed N [--op K] [--trace FILE] ...";
        exit 2
    with e -> Obj [ ("ok", Bool false); ("wrong", Bool false); ("error", Str (describe_exn e)) ]
  in
  let result =
    match result with
    | Obj fields ->
      Obj
        (fields
        @ [ ("peak_rss_mb", Num (peak_rss_mb ())); ("ocaml", Str Sys.ocaml_version) ]
        @ if !Trace.on then [ ("layer_times", layer_times ()) ] else [])
    | j -> j
  in
  Option.iter Trace.write trace;
  print_endline (json_to_string result)
