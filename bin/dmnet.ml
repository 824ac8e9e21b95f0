(* dmnet: command-line interface to the data-management library.

   Subcommands:
     gen      generate an instance (topology x workload) to a file
     solve    place objects with a chosen algorithm
     eval     evaluate a stored placement against an instance
     compare  run all algorithms on one instance and tabulate
     radii    print the write/storage radii of an instance
     replay   stream a request trace through the replay engine
     serve    long-running online serving daemon (socket/stdin ingest)
     ctl      send a control command to a running daemon
     fsck     validate/repair checkpoint and journal directories offline *)

open Cmdliner
open Dmn_prelude
module I = Dmn_core.Instance
module C = Dmn_core.Cost
module A = Dmn_core.Approx

(* ---------- structured error reporting ----------

   Every command body runs under [protect]: a structured [Err.Error]
   (parse, validation, I/O, injected fault) becomes a one-line
   "dmnet: error: <context>" on stderr plus a class-specific exit code
   (65 data, 70 injected fault, 74 I/O — sysexits(3)), instead of an
   uncaught exception with a backtrace. Commands evaluate to their exit
   code via [Cmd.eval']. *)

let protect f =
  try
    f ();
    0
  with Err.Error e ->
    Printf.eprintf "dmnet: error: %s\n%!" (Err.to_string e);
    Err.exit_code e

let load_instance file = Err.get_ok (Dmn_core.Serial.load_instance file)

let exits =
  Cmd.Exit.info 65 ~doc:"on malformed or invalid input data (parse or validation error)."
  :: Cmd.Exit.info 70 ~doc:"on a deterministically injected fault (chaos testing)."
  :: Cmd.Exit.info 74 ~doc:"on a file I/O error."
  :: Cmd.Exit.defaults

(* ---------- shared arguments ---------- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed (deterministic).")

let nodes_arg =
  Arg.(value & opt int 20 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let objects_arg =
  Arg.(value & opt int 1 & info [ "objects" ] ~docv:"K" ~doc:"Number of shared objects.")

let out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout if omitted).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ]
        ~docv:"D"
        ~doc:
          "Domains used for parallel per-object solving and metric closures (default: \
           $(b,DMNET_DOMAINS) or the recommended domain count). Results are identical for \
           every value.")

let set_domains = function
  | None -> ()
  | Some d ->
      if d < 1 then (
        Printf.eprintf "--domains must be >= 1\n";
        exit 2);
      Pool.set_default_domains d

let instance_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"INSTANCE" ~doc:"Instance file produced by $(b,dmnet gen).")

let emit out s = match out with None -> print_string s | Some f -> Dmn_core.Serial.write_file f s

(* ---------- gen ---------- *)

let topology_conv =
  Arg.enum
    [
      ("tree", `Tree); ("path", `Path); ("ring", `Ring); ("grid", `Grid);
      ("er", `Er); ("geometric", `Geometric); ("clustered", `Clustered);
    ]

let workload_conv =
  Arg.enum [ ("mix", `Mix); ("zipf", `Zipf); ("hotspot", `Hotspot); ("uniform", `Uniform) ]

let gen_cmd =
  let topology =
    Arg.(value & opt topology_conv `Er & info [ "topology" ] ~docv:"TOPO"
           ~doc:"Topology: tree, path, ring, grid, er, geometric, clustered. Note that \
                 $(b,grid) builds a rows x cols mesh with rows = floor(sqrt(N)) and rounds N \
                 $(b,up) to the nearest full rectangle, so the instance may have more nodes \
                 than requested (a warning is printed when it does).")
  in
  let workload =
    Arg.(value & opt workload_conv `Mix & info [ "workload" ] ~docv:"WL"
           ~doc:"Workload: mix, zipf, hotspot, uniform.")
  in
  let write_fraction =
    Arg.(value & opt float 0.2 & info [ "write-fraction" ] ~docv:"F"
           ~doc:"Write share of the request mix.")
  in
  let requests =
    Arg.(value & opt int 0 & info [ "requests" ] ~docv:"R"
           ~doc:"Requests per object (0 = 5 per node).")
  in
  let storage =
    Arg.(value & opt float 10.0 & info [ "storage" ] ~docv:"CS"
           ~doc:"Storage fee scale (fees drawn in [CS/2, 3CS/2]).")
  in
  let run seed n objects topology workload write_fraction requests storage domains out =
    protect @@ fun () ->
    set_domains domains;
    let rng = Rng.create seed in
    let g =
      match topology with
      | `Tree -> Dmn_graph.Gen.random_tree rng n
      | `Path -> Dmn_graph.Gen.path n
      | `Ring -> Dmn_graph.Gen.ring n
      | `Grid ->
          let r = max 1 (int_of_float (Float.sqrt (float_of_int n))) in
          let c = max 1 ((n + r - 1) / r) in
          if r * c <> n then
            Printf.eprintf
              "dmnet: warning: --topology grid rounds n=%d up to a %dx%d mesh (%d nodes)\n%!" n
              r c (r * c);
          Dmn_graph.Gen.grid r c
      | `Er -> Dmn_graph.Gen.erdos_renyi rng n 0.25
      | `Geometric -> Dmn_graph.Gen.random_geometric rng n 0.35
      | `Clustered ->
          let c = max 1 (n / 8) in
          Dmn_graph.Gen.clustered rng ~clusters:c ~per_cluster:(max 1 (n / c))
    in
    let n = Dmn_graph.Wgraph.n g in
    let total = if requests > 0 then requests else 5 * n in
    let { Dmn_workload.Freq.fr; fw } =
      match workload with
      | `Mix -> Dmn_workload.Freq.mix rng ~objects ~n ~total ~write_fraction
      | `Zipf ->
          Dmn_workload.Freq.zipf rng ~objects ~n ~requests:total ~s:1.0
            ~write_ratio:write_fraction
      | `Hotspot ->
          Dmn_workload.Freq.hotspot rng ~objects ~n ~readers:(max 1 (n / 4))
            ~writers:(max 1 (n / 10)) ~volume:(max 1 (total / n))
      | `Uniform -> Dmn_workload.Freq.uniform rng ~objects ~n ~max_count:(max 1 (total / n))
    in
    let cs = Array.init n (fun _ -> Rng.float_in rng (storage /. 2.0) (1.5 *. storage)) in
    let inst = I.of_graph g ~cs ~fr ~fw in
    emit out (Dmn_core.Serial.instance_to_string inst)
  in
  let term =
    Term.(
      const run $ seed_arg $ nodes_arg $ objects_arg $ topology $ workload $ write_fraction
      $ requests $ storage $ domains_arg $ out_arg)
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a data-management instance." ~exits) term

(* ---------- algorithms ---------- *)

let algorithms inst =
  let approx solver inst ~x = A.place_object ~config:{ A.default_config with A.solver } inst ~x in
  let base =
    [
      ("approx-mp", approx A.Mettu_plaxton);
      ("approx-jv", approx A.Jain_vazirani);
      ("approx-ls", approx A.Local_search);
      ("approx-greedy", approx A.Greedy);
      ("single", Dmn_baselines.Naive.best_single);
      ("full", Dmn_baselines.Naive.full_replication);
      ("greedy-add", fun inst ~x -> Dmn_baselines.Greedy_place.add inst ~x);
      ("local", fun inst ~x -> Dmn_baselines.Local_place.solve inst ~x);
    ]
  in
  let tree_based =
    match I.graph inst with
    | Some g when Dmn_graph.Wgraph.is_tree g ->
        [ ("tree-opt", fun inst ~x -> fst (Dmn_tree.Tree_solver.place_object inst ~x)) ]
    | _ -> []
  in
  let sta = if I.n inst <= 40 then [ ("approx-sta", approx A.Sta_lp) ] else [] in
  let exact =
    (if I.n inst <= 16 then [ ("exact-mst", fun inst ~x -> fst (Dmn_core.Exact.opt_mst inst ~x)) ]
     else [])
    @ if I.n inst <= 26 then [ ("exact-bnb", fun inst ~x -> fst (Dmn_core.Bnb.opt_mst inst ~x)) ] else []
  in
  base @ sta @ tree_based @ exact

let algo_names inst = List.map fst (algorithms inst)

let lookup_algo inst name =
  match List.assoc_opt name (algorithms inst) with
  | Some f -> f
  | None ->
      Printf.eprintf "unknown algorithm %s (available: %s)\n" name
        (String.concat ", " (algo_names inst));
      exit 2

let solve_placement inst algo =
  Dmn_core.Placement.make
    (Array.init (I.objects inst) (fun x -> lookup_algo inst algo inst ~x))

(* ---------- solve ---------- *)

let solve_cmd =
  let algo =
    Arg.(value & opt string "approx-mp" & info [ "algo" ] ~docv:"ALGO"
           ~doc:"Algorithm: approx-mp/jv/ls/greedy/sta, single, full, greedy-add, local, tree-opt (trees), exact-mst/exact-bnb (small n).")
  in
  let audit =
    Arg.(value & flag & info [ "audit" ] ~doc:"Print a full placement audit (per-object breakdown, properness, restrictedness).")
  in
  let run file algo audit domains out =
    protect @@ fun () ->
    set_domains domains;
    let inst = load_instance file in
    let p = solve_placement inst algo in
    if audit then print_string (Dmn_core.Report.render (Dmn_core.Report.build inst p))
    else begin
      let b = C.placement_mst inst p in
      Printf.eprintf "%s: storage %.3f + read %.3f + update %.3f = total %.3f\n" algo b.C.storage
        b.C.read b.C.update (C.total b)
    end;
    emit out (Dmn_core.Serial.placement_to_string p)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Place all objects of an instance." ~exits)
    Term.(const run $ instance_arg $ algo $ audit $ domains_arg $ out_arg)

(* ---------- eval ---------- *)

let eval_cmd =
  let placement_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"PLACEMENT" ~doc:"Placement file.")
  in
  let run inst_file placement_file =
    protect @@ fun () ->
    let inst = load_instance inst_file in
    let p = Err.get_ok (Dmn_core.Serial.load_placement placement_file) in
    (match Dmn_core.Placement.validate inst p with
    | Ok () -> ()
    | Error e ->
        Err.failf ~file:placement_file Err.Validation "placement does not fit the instance: %s" e);
    let b = C.placement_mst inst p in
    Printf.printf "storage %.6f\nread    %.6f\nupdate  %.6f\ntotal   %.6f\n" b.C.storage
      b.C.read b.C.update (C.total b)
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a placement (MST update policy)." ~exits)
    Term.(const run $ instance_arg $ placement_arg)

(* ---------- compare ---------- *)

let compare_cmd =
  let run file domains =
    protect @@ fun () ->
    set_domains domains;
    let inst = load_instance file in
    let tbl = Tbl.create [ "algorithm"; "storage"; "read"; "update"; "total"; "copies" ] in
    List.iter
      (fun (name, _) ->
        let p = solve_placement inst name in
        let b = C.placement_mst inst p in
        let copies =
          List.init (I.objects inst) (fun x -> Dmn_core.Placement.copy_count p ~x)
          |> List.fold_left ( + ) 0
        in
        Tbl.add_row tbl
          [
            name; Tbl.fl2 b.C.storage; Tbl.fl2 b.C.read; Tbl.fl2 b.C.update;
            Tbl.fl2 (C.total b); string_of_int copies;
          ])
      (algorithms inst);
    Tbl.print tbl
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run every applicable algorithm and tabulate costs." ~exits)
    Term.(const run $ instance_arg $ domains_arg)

(* ---------- loadprofile ---------- *)

let loadprofile_cmd =
  let algo =
    Arg.(value & opt string "approx-mp" & info [ "algo" ] ~docv:"ALGO" ~doc:"Algorithm to place with.")
  in
  let run file algo =
    protect @@ fun () ->
    let inst = load_instance file in
    let p = solve_placement inst algo in
    let profile = Dmn_loadmodel.Net_load.of_placement inst p in
    let tbl = Tbl.create [ "edge"; "load"; "fee"; "weighted" ] in
    let g =
      match I.graph inst with
      | Some g -> g
      | None ->
          Err.fail ~file Err.Validation
            "loadprofile requires a graph-backed instance (this one is metric-backed, so \
             per-edge loads are undefined)"
    in
    List.iter
      (fun (u, v, load) ->
        let fee = Dmn_graph.Wgraph.edge_weight g u v in
        Tbl.add_row tbl
          [
            Printf.sprintf "%d-%d" u v; Tbl.fl load; Tbl.fl fee; Tbl.fl2 (load *. fee);
          ])
      profile.Dmn_loadmodel.Net_load.load;
    Tbl.print tbl;
    Printf.printf "total weighted load %.3f, max edge %.3f\n"
      profile.Dmn_loadmodel.Net_load.total_weighted profile.Dmn_loadmodel.Net_load.max_weighted
  in
  Cmd.v
    (Cmd.info "loadprofile" ~doc:"Per-edge routed load of a placement (congestion view)." ~exits)
    Term.(const run $ instance_arg $ algo)

(* ---------- replay ---------- *)

module E = Dmn_engine.Engine
module Stream = Dmn_dynamic.Stream
module Cs = Dmn_core.Ckpt_store

(* ---------- flags shared by replay and serve ---------- *)

(* A command-line misuse: message on stderr, exit 2. *)
let usage ~who msg =
  Printf.eprintf "dmnet %s: %s\n" who msg;
  exit 2

(* The flags replay and serve share, validated: the engine
   configuration and checkpointing they ask for, the initial-placement
   algorithm and the metrics output. [who] names the command in usage
   errors. *)
let run_flags ~who =
  let policy =
    Arg.(value
         & opt (Arg.enum [ ("static", E.Static); ("resolve", E.Resolve); ("cache", E.Cache) ])
             E.Resolve
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"static (never replan), resolve (re-solve from observed frequencies every \
                   epoch, paying migration), or cache (per-event threshold caching).")
  in
  let epoch =
    Arg.(value & opt int 1000 & info [ "epoch" ] ~docv:"M"
           ~doc:"Requests per epoch: M requests (topology events ride along in arrival \
                 order) are batched, served sharded over the domain pool, then the placement \
                 is re-optimized (policy resolve) and metrics are snapshotted. $(b,dmnet \
                 replay) and $(b,dmnet serve) batch alike, so their metrics are \
                 byte-identical.")
  in
  let period =
    Arg.(value & opt (some int) None & info [ "period" ] ~docv:"T"
           ~doc:"Storage period: events per full storage-rent charge (default: the instance's \
                 request volume).")
  in
  let algo =
    Arg.(value & opt string "approx-mp" & info [ "algo" ] ~docv:"ALGO"
           ~doc:"Algorithm for the initial placement (see $(b,dmnet solve)).")
  in
  let retries =
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"K"
           ~doc:"Retry a failed pool task (crash or injected fault) up to K times before \
                 giving up — a failed epoch re-solve then falls back to the previous \
                 placement instead of aborting.")
  in
  let dirty_eps =
    Arg.(value & opt float 0.3 & info [ "dirty-eps" ] ~docv:"EPS"
           ~doc:"Incremental re-solve threshold (policy resolve): at each epoch boundary an \
                 object is re-solved only when the normalized L1 distance between its current \
                 and last-solved frequency vectors exceeds $(docv) (objects are always \
                 re-solved after a topology change, an emergency re-replication, or their \
                 first request). 0 re-solves every object every epoch — byte-identical to the \
                 pre-incremental engine. The dirty set is a pure function of the trace, so \
                 determinism across --domains is unaffected. On --resume the value is taken \
                 from the checkpoint.")
  in
  let solve_cache =
    Arg.(value & opt int 0 & info [ "solve-cache" ] ~docv:"CAP"
           ~doc:"Memoize per-object placement solves in a bounded LRU of $(docv) entries, \
                 keyed on the topology hash, solver configuration, storage-fee scale, and the \
                 object's quantized frequency vector — recurring demand regimes then reuse \
                 the cached placement instead of re-running the solver. 0 (default) disables. \
                 Not combinable with --ckpt/--resume (cache contents are not checkpointed).")
  in
  let ckpt_dir =
    Arg.(value & opt (some string) None & info [ "ckpt" ] ~docv:"DIR"
           ~doc:"Write crash-safe checkpoint generations into the directory $(docv) \
                 (atomic, CRC-guarded gen-NNNNNN.ckpt files, newest $(b,--ckpt-keep) \
                 retained, each naming a prefix of the append-only epoch-row log \
                 epochs.log) every $(b,--ckpt-every) epochs, and a daemon also at \
                 shutdown; resume later with $(b,--resume) $(docv). Without \
                 $(b,--resume) the run starts a new history in $(docv): generations an \
                 earlier run left there are deleted. A daemon prunes the journal segments \
                 a checkpoint covers, bounding journal disk usage.")
  in
  let ckpt_every =
    Arg.(value & opt int 1 & info [ "ckpt-every" ] ~docv:"N"
           ~doc:"Checkpoint after every N-th epoch (with --ckpt; default 1). A daemon \
                 fsyncs its journal before each due checkpoint.")
  in
  let ckpt_keep =
    Arg.(value & opt int 3 & info [ "ckpt-keep" ] ~docv:"K"
           ~doc:"Keep the newest K checkpoint generations (with --ckpt; default 3). Loading \
                 falls back to an older generation when a newer one is corrupt (a daemon \
                 counts it in $(b,ckpt_fallbacks_total)).")
  in
  let metrics_out =
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write the final metrics JSON to $(docv) (atomic write): a replay prints it \
                 to stdout when omitted, a daemon writes it on shutdown.")
  in
  let setup policy epoch storage_period algo retries dirty_eps solve_cache ckpt_dir ckpt_every
      ckpt_keep metrics_out =
    if retries < 0 then usage ~who "--retries must be >= 0";
    if ckpt_every < 1 then usage ~who "--ckpt-every must be >= 1";
    if ckpt_keep < 1 then usage ~who "--ckpt-keep must be >= 1";
    if dirty_eps < 0.0 || Float.is_nan dirty_eps then usage ~who "--dirty-eps must be >= 0";
    if solve_cache < 0 then usage ~who "--solve-cache must be >= 0";
    ( {
        E.default_config with
        E.policy;
        epoch;
        storage_period;
        attempts = retries + 1;
        dirty_eps;
        solve_cache;
      },
      Option.map (fun dir -> { E.dir; every = ckpt_every; keep = ckpt_keep }) ckpt_dir,
      algo,
      metrics_out )
  in
  Term.(
    const setup $ policy $ epoch $ period $ algo $ retries $ dirty_eps $ solve_cache $ ckpt_dir
    $ ckpt_every $ ckpt_keep $ metrics_out)

(* --resume DIR: the newest valid generation in DIR, and the config and
   placement of a run continuing it. Corrupt newer generations are
   skipped with a warning, not an error — the durability layer's whole
   point is that this degrades instead of exiting 65. *)
let resume_from ~who dir config =
  let l = Err.get_ok (Cs.load_res dir) in
  if l.Cs.fallbacks > 0 then
    Printf.eprintf
      "dmnet %s: warning: checkpoint fallback in %s — skipped %d corrupt newer \
       generation(s), resuming from gen %d\n\
       %!"
      who dir l.Cs.fallbacks l.Cs.generation;
  let config, placement = E.resume_geometry config l in
  (l, config, placement)

(* ---------- replay ---------- *)

let replay_cmd =
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH"
           ~doc:"Replay the request trace at $(docv): a dmnet-trace v1 file (e.g. from \
                 --trace-out) or a segmented journal directory written by $(b,dmnet serve \
                 --journal). Exactly one of $(b,--trace) and $(b,--scenario) is required.")
  in
  let scenario =
    Arg.(value
         & opt
             (some
                (Arg.enum
                   [
                     ("stationary", `Stationary); ("drifting", `Drifting);
                     ("diurnal", `Diurnal); ("flash", `Flash);
                     ("birthdeath", `Birthdeath); ("failures", `Failures);
                   ]))
             None
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:"Generate the stream instead of reading a file: $(b,stationary) samples the \
                   instance's frequency tables i.i.d.; $(b,drifting) moves a hotspot between \
                   phases (adversarial for static placements); $(b,diurnal) cycles demand \
                   between node halves while congesting the heaviest links (topology events); \
                   $(b,flash) spikes one object 100x for half the trace; $(b,birthdeath) \
                   rotates the active object set; $(b,failures) fails and repairs nodes under \
                   a moving hotspot (topology events; graph-backed instances only).")
  in
  let events =
    Arg.(value & opt int 10000 & info [ "events" ] ~docv:"R"
           ~doc:"Stream length for --scenario.")
  in
  let phases =
    Arg.(value & opt int 10 & info [ "phases" ] ~docv:"P"
           ~doc:"Hotspot phases for --scenario drifting (phase length = R/P).")
  in
  let write_fraction =
    Arg.(value & opt float 0.2 & info [ "write-fraction" ] ~docv:"F"
           ~doc:"Write share for --scenario drifting.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"With --scenario: persist the generated stream as a trace file, then replay \
                 from it (the replay streams from disk, exercising the same path as --trace).")
  in
  let resume =
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"CKPTDIR"
           ~doc:"Resume an interrupted replay from the newest valid checkpoint generation in \
                 $(docv) (corrupt newer generations are skipped with a warning). Requires \
                 $(b,--trace) with the same trace the original run consumed (verified by \
                 fingerprint; for a journal directory, pruned segments are vouched for by the \
                 checkpoint); policy, epoch size, storage period and dirty-eps are taken from \
                 the checkpoint. The final metrics JSON is byte-identical to an uninterrupted \
                 run.")
  in
  let tolerate_truncation =
    Arg.(value & flag & info [ "tolerate-truncation" ]
           ~doc:"Accept a trace whose final line was cut mid-write (crash artifact): stop at \
                 the last complete event instead of failing.")
  in
  let who = "replay" in
  let run file trace scenario events phases write_fraction (config, ckpt, algo, metrics_out)
      trace_out resume tolerate_truncation seed domains =
    protect @@ fun () ->
    set_domains domains;
    let inst = load_instance file in
    let make_seq () =
      let rng = Rng.create seed in
      match scenario with
      | Some `Stationary -> Stream.items_of_events (Stream.stationary_seq rng inst ~length:events)
      | Some `Drifting ->
          let phase_length = max 1 (events / max 1 phases) in
          Stream.items_of_events
            (Stream.drifting_seq rng inst ~phases ~phase_length ~write_fraction)
      | Some `Diurnal ->
          Dmn_workload.Adversary.diurnal rng inst ~days:(max 1 phases)
            ~day_length:(max 2 (events / max 1 phases))
            ~write_fraction
      | Some `Flash ->
          Dmn_workload.Adversary.flash_crowd rng inst ~length:events ~spike_at:(events / 4)
            ~spike_length:(events / 2) ~multiplier:100 ~write_fraction
      | Some `Birthdeath -> Dmn_workload.Adversary.birth_death rng inst ~length:events ~write_fraction
      | Some `Failures ->
          Dmn_workload.Adversary.failure_repair rng inst ~phases:(max 1 phases)
            ~phase_length:(max 1 (events / max 1 phases))
            ~write_fraction
      | None -> assert false
    in
    let result =
      match resume with
      | Some dir ->
          let path =
            match (trace, scenario) with
            | Some p, None -> p
            | _ ->
                usage ~who
                  "--resume requires --trace FILE (the same trace the interrupted run \
                   consumed), not --scenario"
          in
          let l, config, placement = resume_from ~who dir config in
          E.run_trace ~config ?ckpt ~resume:l ~tolerate_truncation inst placement path
      | None -> (
          let placement = solve_placement inst algo in
          match (trace, scenario) with
          | Some path, None ->
              if trace_out <> None then usage ~who "--trace-out only applies to --scenario streams";
              E.run_trace ~config ?ckpt ~tolerate_truncation inst placement path
          | None, Some _ -> (
              match trace_out with
              | Some path ->
                  let header =
                    { Dmn_core.Serial.Trace.nodes = I.n inst; objects = I.objects inst }
                  in
                  let written =
                    Dmn_core.Serial.Trace.write_items path header
                      (Seq.map
                         (function
                           | Stream.Req { Stream.node; x; kind } ->
                               Dmn_core.Serial.Trace.Req
                                 { Dmn_core.Serial.Trace.node; x; write = kind = Stream.Write }
                           | Stream.Topo t -> Dmn_core.Serial.Trace.Topo t)
                         (make_seq ()))
                  in
                  Printf.eprintf "dmnet replay: wrote %d items to %s\n%!" written path;
                  E.run_trace ~config ?ckpt ~tolerate_truncation inst placement path
              | None -> E.run_items ~config ?ckpt inst placement (make_seq ()))
          | _ -> usage ~who "pass exactly one of --trace FILE or --scenario NAME")
    in
    let t = result.E.totals in
    Printf.eprintf
      "dmnet replay: policy %s, %d events in %d epochs: serving %.3f + storage %.3f + \
       migration %.3f = %.3f (%d copies)\n\
       %!"
      (E.policy_name result.E.policy) t.E.events (List.length result.E.epochs) t.E.serving
      t.E.storage t.E.migration (E.total_cost t) t.E.copies;
    if t.E.topo > 0 || t.E.dropped > 0 || t.E.emergency > 0 then
      Printf.eprintf
        "dmnet replay: churn: %d topology events applied, %d requests dropped, %d emergency \
         re-replications\n\
         %!"
        t.E.topo t.E.dropped t.E.emergency;
    let ops name =
      match List.assoc_opt name result.E.ops with Some (Metrics.Counter n) -> n | _ -> 0
    in
    Printf.eprintf
      "dmnet replay: supervision: %d solve retries, %d fallbacks, %d serve retries; %d \
       checkpoints written, %d resumes\n\
       %!"
      t.E.solve_retries t.E.solve_fallbacks (ops "serve_retries") (ops "checkpoints_written")
      (ops "resumes");
    match metrics_out with
    | Some path -> E.write_metrics path inst result
    | None -> print_string (E.metrics_json inst result ^ "\n")
  in
  let term =
    Term.(
      const run $ instance_arg $ trace $ scenario $ events $ phases $ write_fraction
      $ run_flags ~who $ trace_out $ resume $ tolerate_truncation $ seed_arg $ domains_arg)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Stream a request trace through the sharded replay engine: serve each epoch over the \
          domain pool, optionally re-optimize the placement at epoch boundaries, and emit a \
          per-epoch metrics timeline as JSON. Deterministic: the metrics JSON is byte-identical \
          for every --domains value, and across kill-and-resume ($(b,--ckpt)/$(b,--resume)). \
          Pool tasks run under a supervisor with bounded retries; failed re-solves degrade to \
          the previous placement."
       ~exits)
    term

(* ---------- serve ---------- *)

module Srv = Dmn_server.Server

let serve_cmd =
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix-domain socket at $(docv): every connection can send data \
                 lines (dmnet-trace v1 grammar) and control lines ($(b,metrics), $(b,health), \
                 $(b,stats), $(b,sync), $(b,shutdown)); control replies come back on the same \
                 connection. A stale socket file is replaced; anything else at $(docv) is \
                 refused.")
  in
  let use_stdin =
    Arg.(value & flag & info [ "stdin" ]
           ~doc:"Also read data lines from stdin (control replies go to stdout). With \
                 $(b,--stdin) alone the daemon drains and exits at end of input, so \
                 $(b,cat trace | dmnet serve --stdin ...) reproduces $(b,dmnet replay).")
  in
  let queue =
    Arg.(value & opt int 16384 & info [ "queue" ] ~docv:"CAP"
           ~doc:"Ingest queue bound: requests arriving while CAP requests are already queued \
                 unserved are shed (counted in $(b,shed_total), never silently dropped). \
                 Topology events are never shed.")
  in
  let tick =
    Arg.(value & opt (some float) None & info [ "tick" ] ~docv:"S"
           ~doc:"Wall-clock flush: serve whatever is queued as a partial epoch when $(docv) \
                 seconds pass without a full batch. Bounds latency under a trickle of \
                 traffic, but partial epochs are no longer byte-identical to a replay of the \
                 same stream — leave unset when determinism matters.")
  in
  let resume =
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"CKPTDIR"
           ~doc:"Resume a killed daemon from the newest valid checkpoint generation in \
                 $(docv) (corrupt newer generations are skipped with a warning). Requires \
                 $(b,--journal) with the journal directory the interrupted daemon appended: \
                 the chain's consumed part is fast-forwarded (fingerprint-verified; pruned \
                 segments vouched for by the checkpoint) and the unserved tail re-queued, so \
                 the final metrics are byte-identical to an uninterrupted run over the same \
                 event stream. Policy, epoch size, storage period and dirty-eps are taken \
                 from the checkpoint.")
  in
  let journal =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR"
           ~doc:"Append every accepted event to a segment chain in the directory $(docv) \
                 (dmnet-trace v1 segments, rotated by item count) before it can reach the \
                 engine, fsyncing before each checkpoint and at shutdown. Segments fully \
                 covered by a durable checkpoint are pruned. Required for $(b,--resume); a \
                 resumed run repairs a torn final line and continues the chain.")
  in
  let max_events =
    Arg.(value & opt (some int) None & info [ "max-events" ] ~docv:"R"
           ~doc:"Stop (gracefully) once R requests have been served.")
  in
  let duration =
    Arg.(value & opt (some float) None & info [ "duration" ] ~docv:"S"
           ~doc:"Stop (gracefully) after $(docv) seconds of wall-clock time.")
  in
  let who = "serve" in
  let run file socket use_stdin (config, ckpt, algo, metrics_out) queue tick resume journal
      max_events duration domains =
    protect @@ fun () ->
    set_domains domains;
    if socket = None && not use_stdin then
      usage ~who "need at least one ingest source (--socket and/or --stdin)";
    if queue < 1 then usage ~who "--queue must be >= 1";
    (match tick with Some t when t <= 0.0 -> usage ~who "--tick must be positive" | _ -> ());
    let inst = load_instance file in
    let resume, config, placement =
      match resume with
      | None -> (None, config, solve_placement inst algo)
      | Some dir ->
          if journal = None then
            usage ~who
              "--resume requires --journal DIR (the journal directory the interrupted daemon \
               appended)";
          let l, config, placement = resume_from ~who dir config in
          (Some l, config, placement)
    in
    let scfg =
      {
        Srv.engine = config;
        ckpt;
        resume;
        journal;
        queue_cap = queue;
        tick_s = tick;
        metrics_out;
        max_events;
        max_seconds = duration;
      }
    in
    let s = Srv.run_daemon scfg inst placement ~socket ~use_stdin in
    Printf.eprintf
      "dmnet serve: %d events served in %d epochs (%.1fs): accepted %d, shed %d, malformed \
       %d, unserved %d, peak RSS %d kB\n\
       %!"
      s.Srv.served_events s.Srv.epochs_served s.Srv.elapsed_s s.Srv.accepted_events
      s.Srv.shed_events s.Srv.malformed_lines s.Srv.queued_unserved s.Srv.peak_rss_kb
  in
  let term =
    Term.(
      const run $ instance_arg $ socket $ use_stdin $ run_flags ~who $ queue $ tick $ resume
      $ journal $ max_events $ duration $ domains_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a long-lived serving daemon over the replay engine: accept request and topology \
          events as dmnet-trace v1 lines over a Unix-domain socket and/or stdin, journal them, \
          batch them into epochs and serve each epoch sharded over the domain pool, \
          re-optimizing at epoch boundaries exactly as $(b,dmnet replay) does. Live metrics, \
          health and stats are one control line away; SIGTERM/SIGINT trigger a graceful \
          shutdown (final checkpoint, journal fsync, final metrics). Overload sheds requests \
          past the queue bound — counted, never silent. Fed the same event stream with the \
          same --epoch, the daemon's metrics are byte-identical to the offline replay, \
          including across kill-and-resume."
       ~exits)
    term

(* ---------- ctl ---------- *)

let ctl_cmd =
  let socket =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Control socket of a running $(b,dmnet serve).")
  in
  let command =
    Arg.(required
         & pos 0 (some (Arg.enum
                          [ ("metrics", "metrics"); ("health", "health"); ("stats", "stats");
                            ("sync", "sync"); ("shutdown", "shutdown") ]))
             None
         & info [] ~docv:"CMD"
             ~doc:"Control command: $(b,metrics) (full JSON metrics dump), $(b,health) \
                   (one-line summary), $(b,stats) (cheap JSON counters), $(b,sync) (force a \
                   journal fsync; replies $(b,ok offset=N) with the durable journal offset), \
                   $(b,shutdown) (graceful stop).")
  in
  let run socket command =
    protect @@ fun () ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (try Unix.connect fd (Unix.ADDR_UNIX socket)
         with Unix.Unix_error (err, _, _) ->
           Err.failf ~file:socket Err.Io "connect: %s" (Unix.error_message err));
        let b = Bytes.of_string (command ^ "\n") in
        let rec send off =
          if off < Bytes.length b then
            match Unix.write fd b off (Bytes.length b - off) with
            | 0 -> Err.failf ~file:socket Err.Io "connection closed while sending"
            | w -> send (off + w)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> send off
        in
        send 0;
        (* the daemon answers with exactly one line *)
        let buf = Buffer.create 1024 in
        let chunk = Bytes.create 65536 in
        let rec recv () =
          if not (String.contains (Buffer.contents buf) '\n') then
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | r ->
                Buffer.add_subbytes buf chunk 0 r;
                recv ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
        in
        recv ();
        let s = Buffer.contents buf in
        let line =
          match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s
        in
        if line = "" then Err.failf ~file:socket Err.Io "no reply from the daemon";
        print_endline line)
  in
  Cmd.v
    (Cmd.info "ctl"
       ~doc:
         "Send one control command to a running $(b,dmnet serve) daemon over its Unix-domain \
          socket and print the one-line reply."
       ~exits)
    Term.(const run $ socket $ command)

(* ---------- fsck ---------- *)

let fsck_cmd =
  let ckpt_dir =
    Arg.(value & opt (some string) None & info [ "ckpt" ] ~docv:"DIR"
           ~doc:"Checkpoint generation directory to validate: every gen-NNNNNN.ckpt file's \
                 own CRC sections, and the prefix of the directory's epoch-row log it names \
                 (length, CRC-32 and every row).")
  in
  let journal_dir =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR"
           ~doc:"Journal segment directory to validate: per-segment grammar, chain \
                 contiguity (no gap or overlap between segments), header agreement, torn \
                 final line.")
  in
  let repair =
    Arg.(value & flag & info [ "repair" ]
           ~doc:"Repair what can be repaired: truncate a torn journal tail, delete corrupt \
                 generation files, truncate epoch-row log bytes past the newest valid \
                 generation, and (with both directories) prune journal segments the newest \
                 valid checkpoint fully covers.")
  in
  let run ckpt_dir journal_dir repair =
    protect @@ fun () ->
    if ckpt_dir = None && journal_dir = None then begin
      Printf.eprintf "dmnet fsck: pass --ckpt DIR and/or --journal DIR\n";
      exit 2
    end;
    let module J = Dmn_core.Serial.Trace.Journal in
    let covered =
      match ckpt_dir with
      | None -> None
      | Some dir ->
          let r = Err.get_ok (Cs.fsck_res ~repair dir) in
          Printf.printf "ckpt %s: %d generation(s), latest gen %d%s%s%s\n" dir r.Cs.f_generations
            r.Cs.f_latest
            (if r.Cs.f_corrupt > 0 then Printf.sprintf ", %d corrupt" r.Cs.f_corrupt else "")
            (if r.Cs.f_tail_bytes > 0 then
               Printf.sprintf ", %d log byte(s) past the newest generation" r.Cs.f_tail_bytes
             else "")
            (if r.Cs.f_repaired then " (repaired)" else "");
          (* a corrupt generation is an integrity failure; one generation
             more than --ckpt-keep, or log rows no generation names yet,
             are benign crash artifacts *)
          if (not r.Cs.f_repaired) && r.Cs.f_corrupt > 0 then
            Err.failf ~file:dir Err.Validation
              "checkpoint directory is damaged (%d corrupt generation(s)); re-run with --repair"
              r.Cs.f_corrupt;
          Some r.Cs.f_covered
    in
    match journal_dir with
    | None -> ()
    | Some dir ->
        let r = Err.get_ok (J.fsck_res ~repair dir) in
        Printf.printf "journal %s: %d segment(s), %d item(s), %d bytes%s%s\n" dir r.J.f_segments
          r.J.f_items r.J.f_bytes
          (if r.J.f_torn_tail then ", torn tail" else "")
          (if r.J.f_repaired then " (repaired)" else "");
        (match covered with
        | None -> ()
        | Some covered ->
            let segs = Err.get_ok (J.list_segments_res dir) in
            let base = match segs with (b, _) :: _ -> b | [] -> 0 in
            Err.get_ok (Cs.covers_res ~file:dir ~covered ~base ~reach:(base + r.J.f_items) ());
            if repair then
              (* what the daemon does online, offline *)
              List.iter
                (fun p -> Printf.printf "pruned %s\n" (Filename.basename p))
                (Err.get_ok (J.prune_dir_res dir ~covered)))
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Validate (and optionally repair) the on-disk durability state of a stopped daemon \
          or replay: the checkpoint generation directory (generations and their epoch-row \
          log), the journal segment chain, and their mutual consistency. Exit 0 when the \
          state is healthy or fully repaired (benign crash artifacts — a torn journal tail, \
          one generation more than $(b,--ckpt-keep), log rows appended by a save that died \
          before its generation landed — do not fail the check); exit 65 on integrity \
          damage (a generation, or the log prefix it names, failing validation) without \
          $(b,--repair), including journal segments pruned past the newest valid \
          checkpoint."
       ~exits)
    Term.(const run $ ckpt_dir $ journal_dir $ repair)

(* ---------- radii ---------- *)

let radii_cmd =
  let obj = Arg.(value & opt int 0 & info [ "x" ] ~docv:"X" ~doc:"Object index.") in
  let run file x =
    protect @@ fun () ->
    let inst = load_instance file in
    if x < 0 || x >= I.objects inst then
      Err.failf ~file Err.Validation "object index %d out of range [0, %d)" x (I.objects inst);
    let r = Dmn_core.Radii.compute inst ~x in
    let tbl = Tbl.create [ "node"; "cs"; "requests"; "rw"; "rs"; "zs" ] in
    Array.iteri
      (fun v nr ->
        Tbl.add_row tbl
          [
            string_of_int v;
            Tbl.fl (I.cs inst v);
            string_of_int (I.requests inst ~x v);
            Tbl.fl nr.Dmn_core.Radii.rw;
            Tbl.fl nr.Dmn_core.Radii.rs;
            string_of_int nr.Dmn_core.Radii.zs;
          ])
      r;
    Tbl.print tbl
  in
  Cmd.v
    (Cmd.info "radii" ~doc:"Print the paper's write and storage radii per node." ~exits)
    Term.(const run $ instance_arg $ obj)

let () =
  let doc = "approximation algorithms for data management in networks (SPAA 2001)" in
  let info = Cmd.info "dmnet" ~version:"1.0.0" ~doc ~exits in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            gen_cmd; solve_cmd; eval_cmd; compare_cmd; radii_cmd; loadprofile_cmd; replay_cmd;
            serve_cmd; ctl_cmd; fsck_cmd;
          ]))
