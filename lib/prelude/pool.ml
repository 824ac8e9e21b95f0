(* Fixed-size domain pool, hand-rolled on Domain/Mutex/Condition.

   One job runs at a time. A job is an index range [0, n) split into
   contiguous chunks; workers (and the submitting domain) claim whole
   chunks off a single atomic cursor and run them with no lock held, so
   dispatch cost is paid per chunk, not per element. Each chunk is
   claimed by exactly one domain and chunk bodies write disjoint state,
   so results are bit-identical to a sequential loop regardless of
   scheduling. The first chunk exception marks the job aborted:
   unclaimed chunks are retired unrun and the exception is re-raised in
   the submitter once in-flight chunks drain. *)

type job = {
  run : int -> int -> unit; (* [run lo hi] processes the half-open range [lo, hi) *)
  n : int;
  chunk : int; (* elements per chunk (last one may be short) *)
  chunks : int;
  cursor : int Atomic.t; (* next unclaimed chunk index *)
  done_ : int Atomic.t; (* chunks retired: run, failed, or abandoned *)
  aborted : bool Atomic.t; (* set on first failure; later claims retire unrun *)
  mutable failed : exn option; (* first failure; protected by the pool lock *)
}

type t = {
  lock : Mutex.t;
  work : Condition.t; (* a job has unclaimed chunks, or the pool stops *)
  finished : Condition.t; (* all chunks retired, or the job slot freed *)
  mutable job : job option;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
  size : int;
  claimed_ctr : int Atomic.t; (* utilization counters, see [stats] *)
  tasks_ctr : int Atomic.t;
}

(* Set while a domain is executing a chunk (worker or submitter): bodies
   that themselves call into a pool fall back to sequential execution
   instead of deadlocking. *)
let inside_task = Domain.DLS.new_key (fun () -> false)

let note_exec t ~chunks ~tasks =
  ignore (Atomic.fetch_and_add t.claimed_ctr chunks);
  ignore (Atomic.fetch_and_add t.tasks_ctr tasks)

(* Claims and runs chunks until the cursor is exhausted. Lock held on
   entry and exit, released while chunk bodies run. *)
let drain t j =
  Mutex.unlock t.lock;
  let prev = Domain.DLS.get inside_task in
  Domain.DLS.set inside_task true;
  let claiming = ref true in
  while !claiming do
    let c = Atomic.fetch_and_add j.cursor 1 in
    if c >= j.chunks then claiming := false
    else if Atomic.get j.aborted then ignore (Atomic.fetch_and_add j.done_ 1)
    else begin
      let lo = c * j.chunk in
      let hi = min j.n (lo + j.chunk) in
      (match j.run lo hi with
      | () -> note_exec t ~chunks:1 ~tasks:(hi - lo)
      | exception e ->
          Atomic.set j.aborted true;
          Mutex.lock t.lock;
          if j.failed = None then j.failed <- Some e;
          Mutex.unlock t.lock);
      ignore (Atomic.fetch_and_add j.done_ 1)
    end
  done;
  Domain.DLS.set inside_task prev;
  Mutex.lock t.lock;
  if Atomic.get j.done_ = j.chunks then Condition.broadcast t.finished

let worker t =
  Mutex.lock t.lock;
  let running = ref true in
  while !running do
    match t.job with
    | Some j when Atomic.get j.cursor < j.chunks -> drain t j
    | _ -> if t.stop then running := false else Condition.wait t.work t.lock
  done;
  Mutex.unlock t.lock

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: need at least one domain";
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      job = None;
      stop = false;
      workers = [||];
      size = domains;
      claimed_ctr = Atomic.make 0;
      tasks_ctr = Atomic.make 0;
    }
  in
  t.workers <- Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let size t = t.size

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

(* ---------- utilization counters ---------- *)

type stats = { chunks_claimed : int; tasks_run : int }

let stats t =
  { chunks_claimed = Atomic.get t.claimed_ctr; tasks_run = Atomic.get t.tasks_ctr }

let reset_stats t =
  Atomic.set t.claimed_ctr 0;
  Atomic.set t.tasks_ctr 0

(* ---------- chunked execution ---------- *)

let default_chunks t = 4 * t.size

(* The (chunks, chunk_size) split [parallel_chunks] would use; (1, n)
   when the range runs sequentially on the submitting domain. *)
let chunk_plan t ?chunks n =
  if n <= 0 then (0, 0)
  else if t.size = 1 || n = 1 || Domain.DLS.get inside_task then (1, n)
  else begin
    let requested = match chunks with Some c -> c | None -> default_chunks t in
    let c = max 1 (min requested n) in
    let chunk = (n + c - 1) / c in
    let c = (n + chunk - 1) / chunk in
    (c, chunk)
  end

(* Parallel path: install the job, participate, wait for every chunk to
   retire, free the job slot, then surface the first failure. *)
let run_chunks t ~chunks ~chunk n run =
  Mutex.lock t.lock;
  while t.job <> None do
    Condition.wait t.finished t.lock
  done;
  let j =
    {
      run;
      n;
      chunk;
      chunks;
      cursor = Atomic.make 0;
      done_ = Atomic.make 0;
      aborted = Atomic.make false;
      failed = None;
    }
  in
  t.job <- Some j;
  Condition.broadcast t.work;
  drain t j;
  while Atomic.get j.done_ < j.chunks do
    Condition.wait t.finished t.lock
  done;
  t.job <- None;
  Condition.broadcast t.finished;
  Mutex.unlock t.lock;
  match j.failed with Some e -> raise e | None -> ()

let parallel_chunks t ?chunks n body =
  if n < 0 then invalid_arg "Pool.parallel_chunks: negative length";
  (match chunks with
  | Some c when c < 1 -> invalid_arg "Pool.parallel_chunks: chunks must be >= 1"
  | _ -> ());
  if n > 0 then begin
    let c, chunk = chunk_plan t ?chunks n in
    if c <= 1 then begin
      (* Empty/singleton/sequential short-circuit: no pool round-trip,
         the body runs directly on the submitting domain. *)
      note_exec t ~chunks:1 ~tasks:n;
      body 0 n
    end
    else run_chunks t ~chunks:c ~chunk n body
  end

(* Per-element tasks, expressed as chunk bodies. The fault coin stays
   salted with the *element* index: a seed that fails task [i] under any
   chunking, scheduling, or domain count fails the same task here. *)
let run_tasks_opt ~inject t n run =
  parallel_chunks t n (fun lo hi ->
      for i = lo to hi - 1 do
        if inject then Fault.check_at "pool.task" i;
        run i
      done)

let run_tasks t n run = run_tasks_opt ~inject:true t n run

let parallel_init t n f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative length";
  if n = 0 then [||]
  else if n = 1 then begin
    (* Singleton short-circuit: same fault coin, no option slots. *)
    note_exec t ~chunks:1 ~tasks:1;
    Fault.check_at "pool.task" 0;
    [| f 0 |]
  end
  else begin
    let slots = Array.make n None in
    run_tasks t n (fun i -> slots.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) slots
  end

let parallel_map t f a = parallel_init t (Array.length a) (fun i -> f a.(i))
let parallel_iter t n f = run_tasks t n f

(* ---------- supervised execution ---------- *)

type failure = { index : int; attempts : int; error : Err.t }
type supervision = { attempts : int; point : string; salt : int -> int }

let default_supervision = { attempts = 3; point = "pool.task"; salt = Fun.id }

(* Retries draw fresh fault coins by shifting the salt into a band the
   base salts (task indices, epoch*object mixes) never reach: attempt 0
   keeps the base salt — identical to unsupervised behavior — and
   attempt [a] adds [a * 2^48]. Deterministic and independent of
   scheduling, so supervised outcomes do not depend on the domain
   count. *)
let attempt_salt base a = base + (a lsl 48)

let supervised_init t ?(supervision = default_supervision) n f =
  if supervision.attempts < 1 then invalid_arg "Pool.supervised_init: attempts must be >= 1";
  if n < 0 then invalid_arg "Pool.supervised_init: negative length";
  let retries = Atomic.make 0 in
  let slots = Array.make (max n 1) None in
  (* [~inject:false]: supervision rolls its own coin per attempt (below)
     at [supervision.point]; the built-in per-task check would bypass
     the retry loop. Tasks here never raise — every outcome is captured
     in the slot — so the job cannot abort unclaimed work. *)
  run_tasks_opt ~inject:false t n (fun i ->
      let base = supervision.salt i in
      let rec attempt a =
        if a > 0 then Atomic.incr retries;
        let outcome =
          match
            Fault.check_at supervision.point (attempt_salt base a);
            f i
          with
          | v -> Ok v
          | exception Err.Error e -> Error e
          | exception e ->
              Error
                (Err.v Err.Internal
                   (Printf.sprintf "task %d crashed: %s" i (Printexc.to_string e)))
        in
        match outcome with
        | Ok v -> Ok v
        | Error e ->
            if a + 1 < supervision.attempts then attempt (a + 1)
            else Error { index = i; attempts = a + 1; error = e }
      in
      slots.(i) <- Some (attempt 0));
  let results =
    Array.init n (fun i -> match slots.(i) with Some r -> r | None -> assert false)
  in
  (results, Atomic.get retries)

(* ---------- default pool ---------- *)

let env_domains () =
  match Sys.getenv_opt "DMNET_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 1 -> Some v
      | _ -> None)
  | None -> None

let chosen_domains = ref None
let default_pool = ref None

let default_domains () =
  match !chosen_domains with
  | Some n -> n
  | None ->
      let n =
        match env_domains () with
        | Some n -> n
        | None -> Domain.recommended_domain_count ()
      in
      chosen_domains := Some n;
      n

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
      let p = create ~domains:(default_domains ()) in
      default_pool := Some p;
      at_exit (fun () -> shutdown p);
      p

let set_default_domains n =
  if n < 1 then invalid_arg "Pool.set_default_domains: need at least one domain";
  (match !default_pool with
  | Some p when p.size <> n ->
      shutdown p;
      default_pool := None
  | _ -> ());
  chosen_domains := Some n

let with_pool ~domains f =
  let p = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
