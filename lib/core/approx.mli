(** The constant-factor approximation algorithm for arbitrary networks
    (paper Section 2.2).

    Per object: phase 1 solves the related facility location problem;
    phase 2 adds a copy on any node [v] whose nearest copy is farther
    than [5 * rs(v)]; phase 3 scans copy holders by ascending write
    radius and deletes any other copy [u] with [ct(u, v) <= 4 * rw(u)].
    The result is a (29, 2)-proper placement (Lemma 8) whose total cost
    is a constant-factor approximation (Theorem 7). *)

type flp_solver =
  | Local_search
  | Jain_vazirani
  | Mettu_plaxton
  | Greedy
  | Trivial
      (** opens only the cheapest node — deliberately bad; phase 2 must
          then repair property 1, which E8 measures *)
  | Sta_lp
      (** Shmoys–Tardos–Aardal LP rounding (the paper's cited phase-1
          algorithm); needs the dense LP, so instances must have
          [n <= 40] *)

val solver_name : flp_solver -> string

type config = {
  solver : flp_solver;  (** phase-1 algorithm; default [Mettu_plaxton] *)
  phase2_factor : float;  (** the paper's [5] *)
  phase3_factor : float;  (** the paper's [4] *)
  run_phase2 : bool;  (** ablation switch *)
  run_phase3 : bool;  (** ablation switch *)
}

val default_config : config

(** [flp_solve solver flp] runs one phase-1 solver on a facility
    location instance: the opened sites. [Trivial] opens the cheapest
    site. @raise Invalid_argument if [Trivial] finds every opening cost
    infinite. *)
val flp_solve : flp_solver -> Dmn_facility.Flp.instance -> int list

(** [phase1 ~config inst ~x] is the initial FLP placement:
    {!flp_solve} on the related facility location instance. *)
val phase1 : config:config -> Instance.t -> x:int -> int list

(** [phase2 ~config inst ~x radii copies] adds copies until every node
    [v] has one within [phase2_factor * rs v]. One pass suffices since
    distances only shrink. *)
val phase2 : config:config -> Instance.t -> x:int -> Radii.node_radii array -> int list -> int list

(** [phase3 ~config inst radii copies] performs the ascending-write-
    radius deletion scan; never empties the copy set. *)
val phase3 : config:config -> Instance.t -> Radii.node_radii array -> int list -> int list

(** Reusable per-object buffers (radii profile workspace + phase-2
    nearest-copy distances). One scratch serves one domain at a time. *)
type scratch

(** [scratch inst] allocates buffers sized for [inst]. *)
val scratch : Instance.t -> scratch

(** [place_object ?config ?scratch inst ~x] runs all three phases.
    Passing [?scratch] reuses caller-owned buffers across objects
    (bit-identical results); omitting it allocates a fresh scratch. *)
val place_object : ?config:config -> ?scratch:scratch -> Instance.t -> x:int -> int list

(** [solve ?config ?pool ?chunks inst] places every object
    independently, processed in contiguous chunks over the pool
    ([pool] defaults to {!Dmn_prelude.Pool.default}; [chunks] tunes the
    batch count, see {!Dmn_prelude.Pool.parallel_chunks}). Each chunk
    reuses one scratch and each object writes a disjoint result slot
    and rolls the per-object ["pool.task"] fault coin, so the placement
    — and any injected failure — is bit-identical to the sequential
    per-object map for every pool size and chunking. *)
val solve :
  ?config:config -> ?pool:Dmn_prelude.Pool.t -> ?chunks:int -> Instance.t -> Placement.t
