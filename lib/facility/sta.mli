(** Shmoys–Tardos–Aardal LP-rounding for UFL (STOC 1997) — the
    algorithm the paper cites for its phase 1, built on the in-repo
    simplex solver.

    The LP relaxation has variables [y_i] (open) and [x_ij]
    (assignment):
    {v
      min  sum_i f_i y_i + sum_{ij} d_j c_ij x_ij
      s.t. sum_i x_ij  = 1      for all j with d_j > 0
           x_ij       <= y_i    for all i, j
           x, y       >= 0
    v}

    Rounding: filtering with parameter [alpha] (default 1/4, giving the
    deterministic factor 4 = max(1/alpha, 3/(1-alpha))): each client's
    alpha-point radius [r_j] is the smallest radius holding an [alpha]
    fraction of its assignment mass; clients are processed by ascending
    [r_j], each opening the cheapest facility in its ball and absorbing
    every client whose ball intersects it.

    The LP size is [n^2 + n] variables — practical to [n ~ 25]. *)

(** [solve ?alpha inst] returns the rounded open set.
    @raise Invalid_argument when [alpha] is outside (0, 1) or the
    instance is too large ([n > 40]). *)
val solve : ?alpha:float -> Flp.instance -> int list

(** [lp_value inst] is the optimal LP-relaxation value — a lower bound
    on the integral optimum, exposed for the tests. *)
val lp_value : Flp.instance -> float
