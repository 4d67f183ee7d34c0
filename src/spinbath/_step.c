/* The projected RK4 step of each bath: the package's only definition of it.

   In unit-free variables, with g = sign(gamma) and f = z + noise +
   exchange field (z the unit static field):

       memory-free:  ds/dt = g/(1+eta^2) s x f  -  eta/(1+eta^2) s x (s x f)
       resonant:     ds/dt = g s x (f + V),   dV/dt = W,
                     dW/dt = -omega0^2 V - Gamma W + alpha s

   A step is the classical RK4 on s in R^3 (and on V, W), the noise
   interpolated linearly at the half step, then s <- s / |s|.  Every
   expression below is evaluated in the order written, one IEEE 754 double
   rounding per operation: spinbath.dynamics compiles this file with
   -ffp-contract=off (no fused multiply-add) and never with -ffast-math, so
   a seeded run gives the same bits on every build, and the numpy
   references in the tests match a step exactly.

   Each entry steps n_sites sites n_steps times.  spins (and V, for the
   resonant bath, unless aux_v is NULL) are (n_sites, n_steps + 1, 3)
   row-major arrays: row 0 of spins holds the initial spins, and every
   later row is written with the state after that step.  noise holds
   three row pointers per site, (bx, by, bz), each indexed by grid point
   0..n_steps; a NULL row is a zero field.  Sites are coupled by n_bonds
   bonds (a, b) with row-major 3x3 tensors J: at every stage site a's
   exchange field is the sum of J s_b over its bonds, from 0.0, bonds in
   the order given (sorted by site pair), each bond's three products added
   left to right.  Without bonds no exchange field is added at all
   (x + 0.0 would turn -0.0 into +0.0).

   An entry returns the first step after which some site's state is not
   finite (that site's rows from that step on are left unwritten), 0 if
   every state was finite, and -1 if no memory was left for the sites'
   state. */

#include <math.h>
#include <stdlib.h>

/* Helpers are always inlined, so that a site stepped alone (run_alone)
   keeps its state in registers: 0.053-0.069 us a step against 0.11-0.13
   us with the state in memory, as coupled sites keep it (2-core x86-64,
   gcc 12.2, best of 7 runs of 20,000 steps). */
#define STEP static inline __attribute__((always_inline))

typedef struct { double x, y, z; } vec;

typedef struct {
    int resonant;
    double ngp, lam;              /* memory-free: -g, eta, over 1+eta^2 */
    double ng, nw0sq, gam, al;    /* resonant: -g, -omega0^2, Gamma, alpha */
    double h[4], h6;              /* stage offsets 0, h/2, h/2, h; and h/6 */
} bath;

typedef struct {
    vec s, v, w;                  /* state at the start of the step */
    vec b[3];                     /* field at the step's start, middle, end */
    vec p, pv, pw;                /* state at the current stage */
    vec j;                        /* exchange field at the stage spins */
    vec k[4], dv[4], dw[4];       /* slopes of s, V and W at each stage */
} site;

STEP vec cross(vec a, vec b)
{
    return (vec){a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z,
                 a.x * b.y - a.y * b.x};
}

/* a + h k */
STEP vec advance(vec a, double h, vec k)
{
    return (vec){a.x + h * k.x, a.y + h * k.y, a.z + h * k.z};
}

/* a + h6 (k1 + 2 (k2 + k3) + k4) */
STEP vec rk4(vec a, double h6, const vec *k)
{
    return (vec){a.x + h6 * (k[0].x + 2.0 * (k[1].x + k[2].x) + k[3].x),
                 a.y + h6 * (k[0].y + 2.0 * (k[1].y + k[2].y) + k[3].y),
                 a.z + h6 * (k[0].z + 2.0 * (k[1].z + k[2].z) + k[3].z)};
}

STEP double at(const double *row, long j)
{
    return row ? row[j] : 0.0;
}

/* The field of one site at the step's start, middle and end: the noise of
   grid points step - 1 and step and their mean, plus the unit static field
   for the memory-free bath (the resonant one adds it with V). */
STEP void load_field(site *x, const bath *c, const double *const *rows,
                       long step)
{
    vec b0 = {at(rows[0], step - 1), at(rows[1], step - 1),
              at(rows[2], step - 1)};
    vec b1 = {at(rows[0], step), at(rows[1], step), at(rows[2], step)};
    if (!c->resonant) {
        b0.z = 1.0 + b0.z;
        b1.z = 1.0 + b1.z;
    }
    x->b[0] = b0;
    x->b[1] = (vec){0.5 * (b0.x + b1.x), 0.5 * (b0.y + b1.y),
                    0.5 * (b0.z + b1.z)};
    x->b[2] = b1;
}

/* Stage i's state: s (and V, W) at stage 0, then advanced along the
   previous stage's slopes by h/2, h/2 and h. */
STEP void stage_state(site *x, const bath *c, int i)
{
    if (i == 0) {
        x->p = x->s;
        x->pv = x->v;
        x->pw = x->w;
        return;
    }
    x->p = advance(x->s, c->h[i], x->k[i - 1]);
    if (c->resonant) {
        x->pv = advance(x->v, c->h[i], x->dv[i - 1]);
        x->pw = advance(x->w, c->h[i], x->dw[i - 1]);
    }
}

/* Every site's exchange field at the stage spins. */
static void exchange(site *sites, long n_sites, long n_bonds,
                     const long *pairs, const double *tensors)
{
    for (long a = 0; a < n_sites; a++)
        sites[a].j = (vec){0.0, 0.0, 0.0};
    for (long n = 0; n < n_bonds; n++) {
        const double *t = tensors + 9 * n;
        vec *j = &sites[pairs[2 * n]].j;
        vec q = sites[pairs[2 * n + 1]].p;
        j->x = j->x + (t[0] * q.x + t[1] * q.y + t[2] * q.z);
        j->y = j->y + (t[3] * q.x + t[4] * q.y + t[5] * q.z);
        j->z = j->z + (t[6] * q.x + t[7] * q.y + t[8] * q.z);
    }
}

/* Stage i's slopes at its state, in the field of its point in the step. */
STEP void slope(site *x, const bath *c, int i, int coupled)
{
    vec b = x->b[i == 0 ? 0 : i == 3 ? 2 : 1];
    vec p = x->p, f;
    if (c->resonant)
        f = (vec){b.x + x->pv.x, b.y + x->pv.y, 1.0 + b.z + x->pv.z};
    else
        f = b;
    if (coupled)
        f = (vec){f.x + x->j.x, f.y + x->j.y, f.z + x->j.z};
    if (c->resonant) {
        vec o = {c->ng * f.x, c->ng * f.y, c->ng * f.z};
        vec v = x->pv, w = x->pw;
        x->k[i] = cross(o, p);
        x->dv[i] = w;
        x->dw[i] = (vec){c->nw0sq * v.x - c->gam * w.x + c->al * p.x,
                         c->nw0sq * v.y - c->gam * w.y + c->al * p.y,
                         c->nw0sq * v.z - c->gam * w.z + c->al * p.z};
    } else {
        vec t = cross(p, f);
        vec o = {c->ngp * f.x + c->lam * t.x, c->ngp * f.y + c->lam * t.y,
                 c->ngp * f.z + c->lam * t.z};
        x->k[i] = cross(o, p);
    }
}

/* The end of the step: s (V, W) advanced by the four stages' slopes, s
   projected back onto the unit sphere.  Returns 0 if the state is not
   finite, before the projection. */
STEP int finish(site *x, const bath *c)
{
    vec s = rk4(x->s, c->h6, x->k);
    double nrm2 = s.x * s.x + s.y * s.y + s.z * s.z;
    double check = nrm2;
    if (c->resonant) {
        x->v = rk4(x->v, c->h6, x->dv);
        x->w = rk4(x->w, c->h6, x->dw);
        check = nrm2 + x->v.x + x->v.y + x->v.z + x->w.x + x->w.y + x->w.z;
    }
    if (!isfinite(check))
        return 0;
    double r = 1.0 / sqrt(nrm2);
    x->s = (vec){s.x * r, s.y * r, s.z * r};
    return 1;
}

STEP void store(double *rows, long row, vec a)
{
    rows[3 * row] = a.x;
    rows[3 * row + 1] = a.y;
    rows[3 * row + 2] = a.z;
}

/* One site without exchange, stepped on a local copy of its state. */
STEP long run_alone(site x, const bath *c, long n_steps, double *spins,
                    double *aux_v, const double *const *rows)
{
    for (long step = 1; step <= n_steps; step++) {
        load_field(&x, c, rows, step);
        for (int i = 0; i < 4; i++) {
            stage_state(&x, c, i);
            slope(&x, c, i, 0);
        }
        if (!finish(&x, c))
            return step;
        store(spins, step, x.s);
        if (aux_v)
            store(aux_v, step, x.v);
    }
    return 0;
}

/* Exchange-coupled sites, stepped together: each stage's exchange field
   needs every site's stage spin. */
STEP long run_coupled(site *sites, const bath *c, long n_sites, long n_steps,
                      double *spins, double *aux_v,
                      const double *const *noise, long n_bonds,
                      const long *pairs, const double *tensors)
{
    long rows = n_steps + 1;
    for (long step = 1; step <= n_steps; step++) {
        for (long a = 0; a < n_sites; a++)
            load_field(&sites[a], c, noise + 3 * a, step);
        for (int i = 0; i < 4; i++) {
            for (long a = 0; a < n_sites; a++)
                stage_state(&sites[a], c, i);
            exchange(sites, n_sites, n_bonds, pairs, tensors);
            for (long a = 0; a < n_sites; a++)
                slope(&sites[a], c, i, 1);
        }
        for (long a = 0; a < n_sites; a++) {
            if (!finish(&sites[a], c))
                return step;
            store(spins + 3 * rows * a, step, sites[a].s);
            if (aux_v)
                store(aux_v + 3 * rows * a, step, sites[a].v);
        }
    }
    return 0;
}

STEP long run(const bath *c, long n_sites, long n_steps, double *spins,
              double *aux_v, const double *const *noise, long n_bonds,
              const long *pairs, const double *tensors)
{
    long rows = n_steps + 1, diverged = 0;
    site *sites = malloc(n_sites * sizeof *sites);
    if (!sites)
        return -1;
    for (long a = 0; a < n_sites; a++) {
        const double *s0 = spins + 3 * rows * a;
        sites[a].s = (vec){s0[0], s0[1], s0[2]};
        sites[a].v = sites[a].w = (vec){0.0, 0.0, 0.0};
        if (aux_v)
            store(aux_v + 3 * rows * a, 0, sites[a].v);
    }
    if (n_bonds) {
        diverged = run_coupled(sites, c, n_sites, n_steps, spins, aux_v,
                               noise, n_bonds, pairs, tensors);
    } else {
        for (long a = 0; a < n_sites; a++) {
            long step = run_alone(sites[a], c, n_steps, spins + 3 * rows * a,
                                  aux_v ? aux_v + 3 * rows * a : NULL,
                                  noise + 3 * a);
            if (step && (!diverged || step < diverged))
                diverged = step;
        }
    }
    free(sites);
    return diverged;
}

long llg_run(long n_sites, long n_steps, double h, double ngp, double lam,
             double *spins, const double *const *noise, long n_bonds,
             const long *pairs, const double *tensors)
{
    bath c = {.resonant = 0, .ngp = ngp, .lam = lam,
              .h = {0.0, 0.5 * h, 0.5 * h, h}, .h6 = h / 6.0};
    return run(&c, n_sites, n_steps, spins, NULL, noise, n_bonds, pairs,
               tensors);
}

long lorentzian_run(long n_sites, long n_steps, double h, double ng,
                    double nw0sq, double gam, double al, double *spins,
                    double *aux_v, const double *const *noise, long n_bonds,
                    const long *pairs, const double *tensors)
{
    bath c = {.resonant = 1, .ng = ng, .nw0sq = nw0sq, .gam = gam, .al = al,
              .h = {0.0, 0.5 * h, 0.5 * h, h}, .h6 = h / 6.0};
    return run(&c, n_sites, n_steps, spins, aux_v, noise, n_bonds, pairs,
               tensors);
}
