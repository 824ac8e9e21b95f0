module Metrics = Dmn_prelude.Metrics

module Record = struct
  type epoch_stats = {
    index : int;
    events : int;
    reads : int;
    writes : int;
    serving : float;
    storage : float;
    migration : float;
    resolves : int;
    solve_retries : int;
    solve_fallbacks : int;
    solve_skipped : int;
    dirty : int;
    cache_hits : int;
    cache_misses : int;
    cache_evictions : int;
    dropped : int;
    emergency : int;
    topo : int;
    copies : int;
    p50 : float;
    p95 : float;
    p99 : float;
  }
end

include Record

type t = epoch_stats

type kind = Int of (t -> int) * (t -> int -> t) | Float of (t -> float) * (t -> float -> t)

type field = {
  kind : kind;
  gauge : string;
  counter : string option;
  total : (int * string) option;
}

let fields =
  let int ?counter ?total gauge get set = { kind = Int (get, set); gauge; counter; total }
  and float ?total gauge get set = { kind = Float (get, set); gauge; counter = None; total } in
  [
    int "epoch" (fun r -> r.index) (fun r index -> { r with index });
    int "epoch_events" ~counter:"events_total" ~total:(0, "events")
      (fun r -> r.events) (fun r events -> { r with events });
    int "epoch_reads" ~counter:"reads_total" ~total:(1, "reads")
      (fun r -> r.reads) (fun r reads -> { r with reads });
    int "epoch_writes" ~counter:"writes_total" ~total:(2, "writes")
      (fun r -> r.writes) (fun r writes -> { r with writes });
    float "epoch_serving" ~total:(4, "serving")
      (fun r -> r.serving) (fun r serving -> { r with serving });
    float "epoch_storage" ~total:(5, "storage")
      (fun r -> r.storage) (fun r storage -> { r with storage });
    float "epoch_migration" ~total:(6, "migration")
      (fun r -> r.migration) (fun r migration -> { r with migration });
    int "epoch_resolves" ~counter:"resolves_total" ~total:(7, "resolves")
      (fun r -> r.resolves) (fun r resolves -> { r with resolves });
    int "epoch_solve_retries" ~counter:"solve_retries" ~total:(8, "solve_retries")
      (fun r -> r.solve_retries) (fun r solve_retries -> { r with solve_retries });
    int "epoch_solve_fallbacks" ~counter:"solve_fallbacks" ~total:(9, "solve_fallbacks")
      (fun r -> r.solve_fallbacks) (fun r solve_fallbacks -> { r with solve_fallbacks });
    int "epoch_solve_skipped" ~counter:"solve_skipped_total" ~total:(10, "solve_skipped")
      (fun r -> r.solve_skipped) (fun r solve_skipped -> { r with solve_skipped });
    int "dirty_objects" (fun r -> r.dirty) (fun r dirty -> { r with dirty });
    int "epoch_cache_hits" ~counter:"solve_cache_hits_total" ~total:(11, "cache_hits")
      (fun r -> r.cache_hits) (fun r cache_hits -> { r with cache_hits });
    int "epoch_cache_misses" ~counter:"solve_cache_misses_total" ~total:(12, "cache_misses")
      (fun r -> r.cache_misses) (fun r cache_misses -> { r with cache_misses });
    int "epoch_cache_evictions" ~counter:"solve_cache_evictions_total" ~total:(13, "cache_evictions")
      (fun r -> r.cache_evictions) (fun r cache_evictions -> { r with cache_evictions });
    int "epoch_dropped" ~counter:"dropped_total" ~total:(3, "dropped")
      (fun r -> r.dropped) (fun r dropped -> { r with dropped });
    int "epoch_emergency" ~counter:"emergency_total" ~total:(14, "emergency")
      (fun r -> r.emergency) (fun r emergency -> { r with emergency });
    int "epoch_topo" ~counter:"topo_total" ~total:(15, "topo")
      (fun r -> r.topo) (fun r topo -> { r with topo });
    int "copies" ~total:(16, "final_copies") (fun r -> r.copies) (fun r copies -> { r with copies });
    float "request_cost_p50" (fun r -> r.p50) (fun r p50 -> { r with p50 });
    float "request_cost_p95" (fun r -> r.p95) (fun r p95 -> { r with p95 });
    float "request_cost_p99" (fun r -> r.p99) (fun r p99 -> { r with p99 });
  ]

let zero =
  {
    index = 0;
    events = 0;
    reads = 0;
    writes = 0;
    serving = 0.0;
    storage = 0.0;
    migration = 0.0;
    resolves = 0;
    solve_retries = 0;
    solve_fallbacks = 0;
    solve_skipped = 0;
    dirty = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    dropped = 0;
    emergency = 0;
    topo = 0;
    copies = 0;
    p50 = 0.0;
    p95 = 0.0;
    p99 = 0.0;
  }

let add a b =
  List.fold_left
    (fun acc f ->
      match f.kind with
      | Int (get, set) -> set acc (get a + get b)
      | Float (get, set) -> set acc (get a +. get b))
    a fields

let total_cost r = r.serving +. r.storage +. r.migration

let snapshot ~sum r =
  let counters =
    List.filter_map
      (fun f ->
        match (f.counter, f.kind) with
        | Some name, Int (get, _) -> Some (name, Metrics.Counter (get sum))
        | _ -> None)
      fields
  in
  counters
  @ List.map
      (fun f ->
        ( f.gauge,
          match f.kind with
          | Int (get, _) -> Metrics.Gauge (float_of_int (get r))
          | Float (get, _) -> Metrics.Gauge (get r) ))
      fields

let totals_order =
  List.filter_map (fun f -> Option.map (fun (pos, key) -> (pos, key, f)) f.total) fields
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

let add_totals_json buf t =
  List.iter
    (fun (_, key, f) ->
      Buffer.add_string buf (Printf.sprintf "\"%s\":" key);
      Buffer.add_string buf
        (match f.kind with
        | Int (get, _) -> string_of_int (get t)
        | Float (get, _) -> Metrics.json_float (get t));
      Buffer.add_char buf ',')
    totals_order;
  Buffer.add_string buf (Printf.sprintf "\"total_cost\":%s" (Metrics.json_float (total_cost t)))
