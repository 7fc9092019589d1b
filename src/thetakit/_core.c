/* Compiled q-series kernel, thetakit._core.

   The same two functions as the pure-Python reference in _series_py.py,
   with the same summation order, stopping rule and exceptions.  Every
   complex operation is the one CPython performs for the matching Python
   expression, in the same order and association: a product is CPython's
   four-multiplication formula (no C99 Annex G recovery of infinities),
   exp() is cmath.exp and abs() is complex.__abs__, each with its
   OverflowError.  So both kernels return the same bits, and
   tests/test_kernel_backends.py checks that they do.

   Build in place: python setup.py build_ext --inplace */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <complex.h>
#include <float.h>
#include <math.h>

/* A fused multiply-add rounds once where CPython rounds twice.  With
   contraction off, GCC's SLP vectorizer still fuses complex products into
   vfmaddsub when -march allows FMA, so it is switched off too. */
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off", "no-tree-slp-vectorize")
#endif

#define MAX_ORDER 32
#define PI 3.141592653589793238462643383279502884

typedef Py_complex cplx;

static PyObject *NonConvergenceError; /* thetakit.errors */
static PyObject *cmath_exp;

static inline cplx
add(cplx a, cplx b)
{
    return (cplx){a.real + b.real, a.imag + b.imag};
}

static inline cplx
mul(cplx a, cplx b)
{
    return (cplx){a.real * b.real - a.imag * b.imag,
                  a.real * b.imag + a.imag * b.real};
}

/* cmath.exp.  For finite y and x up to CPython's overflow guard,
   log(DBL_MAX/4), it is exp(x) * (cos(y) + i sin(y)), which is what cexp
   computes too (and both give +0 * cis(y) at x = -inf).  Otherwise
   cmath.exp itself is called: it returns its special value, or raises. */
static int
exp_(cplx z, cplx *out)
{
    if (z.real <= log(DBL_MAX / 4.0) && isfinite(z.imag)) {
        double complex r = cexp(CMPLX(z.real, z.imag));
        *out = (cplx){creal(r), cimag(r)};
        return 0;
    }
    PyObject *arg = PyComplex_FromCComplex(z), *res = NULL;
    if (arg != NULL)
        res = PyObject_CallOneArg(cmath_exp, arg);
    Py_XDECREF(arg);
    if (res == NULL)
        return -1;
    *out = PyComplex_AsCComplex(res);
    Py_DECREF(res);
    return out->real == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* abs() is hypot(), except that CPython raises OverflowError where a finite
   number has an infinite modulus.  The hot loop takes the modulus as it is,
   and only when some modulus came out non-finite does it replay its sums
   and terms w*slope**j through this check.  The modulus is cabs(), which
   glibc computes with hypot(): a build without -lm would bind hypot() to
   an older, slower symbol version. */
static int
overflows(cplx z)
{
    return isfinite(z.real) && isfinite(z.imag)
           && isinf(cabs(CMPLX(z.real, z.imag)));
}

static int
overflowed(const cplx *sums, int nsum, cplx w, cplx slope)
{
    for (int j = 0; j < nsum; j++, w = mul(w, slope)) {
        if (overflows(sums[j]) || overflows(w)) {
            PyErr_SetString(PyExc_OverflowError, "absolute value too large");
            return 1;
        }
    }
    return 0;
}

/* One series: its terms w_k and tau-slopes, for k paired as (k, -k-alpha). */
typedef struct {
    int theta;         /* theta series, else pentagonal */
    long alpha, nz;    /* theta: characteristic and z-derivative count */
    cplx mod, arg;     /* theta: M*tau + C and A*tau + B + beta/2 */
    cplx ipi_m, ipi_a; /* theta: (1j*pi)*M and (2j*pi)*A */
    cplx tau;
} Series;

/* CPython's products (1j*pi)*kh*kh and (2j*pi)*kh, for a real kh that is
   not -0.0, and (1j*pi)*e, for e > 0, reduce to the components written
   out below, signed zeros included. */
static inline int
term(const Series *s, long k, cplx *w, cplx *slope)
{
    if (s->theta) {
        double kh = k + 0.5 * s->alpha;
        cplx q = {0.0, PI * kh * kh}, dz = {0.0 * kh, 2.0 * PI * kh};
        if (exp_(add(mul(q, s->mod), mul(dz, s->arg)), w) < 0)
            return -1;
        for (long i = 0; i < s->nz; i++)
            *w = mul(*w, dz);
        cplx r = {kh, 0.0};
        *slope = add(mul(mul(s->ipi_m, r), r), mul(s->ipi_a, r));
    }
    else {
        double e = 3.0 * k * k + k + 1.0 / 12.0;
        *slope = (cplx){0.0, PI * e};
        if (exp_(mul(*slope, s->tau), w) < 0)
            return -1;
        if (k & 1)
            *w = (cplx){-w->real, -w->imag};
    }
    return 0;
}

static PyObject *
to_list(const cplx *sums, int nsum)
{
    PyObject *list = PyList_New(nsum);
    for (int j = 0; list != NULL && j < nsum; j++) {
        PyObject *item = PyComplex_FromCComplex(sums[j]);
        if (item == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, j, item);
    }
    return list;
}

static PyObject *
not_settled(const char *what, long max_terms, const cplx *sums, int nsum)
{
    PyObject *exc = NULL, *partial = NULL, *msg = PyUnicode_FromFormat(
        "%s series did not settle within %ld terms", what, max_terms);
    if (msg != NULL && (exc = PyObject_CallOneArg(NonConvergenceError, msg))
        && (partial = to_list(sums, nsum))
        && PyObject_SetAttrString(exc, "partial", partial) == 0)
        PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
    Py_XDECREF(msg);
    Py_XDECREF(exc);
    Py_XDECREF(partial);
    return NULL;
}

/* S_j = sum_k w_k * slope_k**j for j <= order, summed in symmetric groups
   until `consecutive` groups in a row are negligible against the running
   maximum of every |S_j|. */
static PyObject *
sum_series(const Series *s, long order, double abs_floor, long consecutive,
           long max_terms)
{
    cplx sums[MAX_ORDER];
    double run_max[MAX_ORDER], group_mag[MAX_ORDER];
    if (order >= MAX_ORDER) {
        PyErr_SetString(PyExc_ValueError,
                        "jet order beyond the compiled kernel's buffer");
        return NULL;
    }
    int nsum = order < 0 ? 0 : (int)order + 1;
    long negligible_run = 0, terms_used = 0;
    for (int j = 0; j < nsum; j++) {
        sums[j] = (cplx){0.0, 0.0};
        run_max[j] = 0.0;
    }
    for (long rho = 0;; rho++) {
        long ks[2] = {rho, -rho - s->alpha};
        int npair = rho == 0 && s->alpha == 0 ? 1 : 2;
        for (int j = 0; j < nsum; j++)
            group_mag[j] = 0.0;
        for (int i = 0; i < npair; i++) {
            cplx w, slope;
            if (term(s, ks[i], &w, &slope) < 0)
                return NULL;
            cplx w0 = w;
            for (int j = 0; j < nsum; j++) {
                sums[j] = add(sums[j], w);
                double ms = cabs(CMPLX(sums[j].real, sums[j].imag));
                run_max[j] = ms > run_max[j] ? ms : run_max[j];
                group_mag[j] += cabs(CMPLX(w.real, w.imag));
                w = mul(w, slope);
            }
            double total = 0.0; /* not finite if any modulus was not */
            for (int j = 0; j < nsum; j++)
                total += run_max[j] + group_mag[j];
            if (!isfinite(total) && overflowed(sums, nsum, w0, slope))
                return NULL;
        }
        terms_used += npair;
        int small = 1;
        for (int j = 0; j < nsum && small; j++)
            small = !(group_mag[j] > abs_floor * run_max[j]);
        if (!small)
            negligible_run = 0;
        else if (++negligible_run >= consecutive)
            return to_list(sums, nsum);
        if (terms_used >= max_terms)
            return not_settled(s->theta ? "theta" : "pentagonal", max_terms,
                               sums, nsum);
    }
}

/* Argument conversion: each returns nonzero with an exception set. */
static int
as_long(PyObject *o, long *out)
{
    *out = PyLong_AsLong(o);
    return *out == -1 && PyErr_Occurred();
}

static int
as_double(PyObject *o, double *out)
{
    *out = PyFloat_AsDouble(o);
    return *out == -1.0 && PyErr_Occurred();
}

static int
as_complex(PyObject *o, cplx *out)
{
    if (PyComplex_CheckExact(o))
        *out = ((PyComplexObject *)o)->cval;
    else if (PyFloat_CheckExact(o)) /* skips the lookup of __complex__ */
        *out = (cplx){PyFloat_AS_DOUBLE(o), 0.0};
    else
        *out = PyComplex_AsCComplex(o);
    return out->real == -1.0 && PyErr_Occurred();
}

static int
wrong_count(const char *name, Py_ssize_t nargs, Py_ssize_t expected)
{
    if (nargs != expected)
        PyErr_Format(PyExc_TypeError,
                     "%s() takes exactly %zd positional arguments (%zd given)",
                     name, expected, nargs);
    return nargs != expected;
}

static PyObject *
theta_sums(PyObject *Py_UNUSED(module), PyObject *const *args,
           Py_ssize_t nargs)
{
    Series s = {.theta = 1};
    long beta, order, consecutive, max_terms;
    double abs_floor;
    cplx a, b, m, c;
    if (wrong_count("theta_sums", nargs, 12)
        || as_long(args[0], &s.alpha) || as_long(args[1], &beta)
        || as_complex(args[2], &a) || as_complex(args[3], &b)
        || as_complex(args[4], &m) || as_complex(args[5], &c)
        || as_complex(args[6], &s.tau) || as_long(args[7], &s.nz)
        || as_long(args[8], &order) || as_double(args[9], &abs_floor)
        || as_long(args[10], &consecutive) || as_long(args[11], &max_terms))
        return NULL;
    if ((s.alpha != 0 && s.alpha != 1) || (beta != 0 && beta != 1)) {
        PyErr_SetString(PyExc_ValueError,
                        "characteristics must be reduced to {0,1}");
        return NULL;
    }
    s.mod = add(mul(m, s.tau), c);
    s.arg = add(add(mul(a, s.tau), b), (cplx){0.5 * beta, 0.0});
    s.ipi_m = mul((cplx){0.0, PI}, m);
    s.ipi_a = mul((cplx){0.0, 2.0 * PI}, a);
    return sum_series(&s, order, abs_floor, consecutive, max_terms);
}

static PyObject *
dedekind_sums(PyObject *Py_UNUSED(module), PyObject *const *args,
              Py_ssize_t nargs)
{
    Series s = {.theta = 0};
    long order, consecutive, max_terms;
    double abs_floor;
    if (wrong_count("dedekind_sums", nargs, 5)
        || as_complex(args[0], &s.tau) || as_long(args[1], &order)
        || as_double(args[2], &abs_floor) || as_long(args[3], &consecutive)
        || as_long(args[4], &max_terms))
        return NULL;
    return sum_series(&s, order, abs_floor, consecutive, max_terms);
}

static PyMethodDef methods[] = {
    {"theta_sums", (PyCFunction)(void (*)(void))theta_sums, METH_FASTCALL,
     "theta_sums(alpha, beta, a_lin, b_lin, m_scale, c_shift, tau, nz, "
     "order, abs_floor, consecutive, max_terms)\n--\n\n"
     "Termwise sums of the characteristic theta series; see _series_py."},
    {"dedekind_sums", (PyCFunction)(void (*)(void))dedekind_sums,
     METH_FASTCALL,
     "dedekind_sums(tau, order, abs_floor, consecutive, max_terms)\n--\n\n"
     "Termwise sums of the pentagonal-number series; see _series_py."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, .m_name = "thetakit._core",
    .m_doc = "Compiled q-series kernel, bit-identical to _series_py.",
    .m_size = -1, .m_methods = methods,
};

static PyObject *
import_attr(const char *module, const char *name)
{
    PyObject *mod = PyImport_ImportModule(module), *attr = NULL;
    if (mod != NULL)
        attr = PyObject_GetAttrString(mod, name);
    Py_XDECREF(mod);
    return attr;
}

PyMODINIT_FUNC
PyInit__core(void)
{
    if (NonConvergenceError == NULL) {
        NonConvergenceError =
            import_attr("thetakit.errors", "NonConvergenceError");
        cmath_exp = import_attr("cmath", "exp");
        if (NonConvergenceError == NULL || cmath_exp == NULL) {
            Py_CLEAR(NonConvergenceError);
            Py_CLEAR(cmath_exp);
            return NULL;
        }
    }
    PyObject *module = PyModule_Create(&module_def);
    if (module != NULL
        && PyModule_AddStringConstant(module, "BACKEND", "compiled") < 0)
        Py_CLEAR(module);
    return module;
}
