# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled scan kernels: the exact twin of perdec._kernels_py.

The dispatcher in perdec.kernels only routes here when every numerator
fits comfortably in int64, so all value arithmetic below is C integer
arithmetic.  Enumeration order must stay in lockstep with the pure
module; the test suite compares both on random inputs.
"""

from cpython.mem cimport PyMem_Free, PyMem_Malloc


cdef long long* _alloc_ll(Py_ssize_t n) except NULL:
    cdef long long* p = <long long*> PyMem_Malloc(n * sizeof(long long))
    if p == NULL:
        raise MemoryError()
    return p


cdef Py_ssize_t* _alloc_sz(Py_ssize_t n) except NULL:
    cdef Py_ssize_t* p = <Py_ssize_t*> PyMem_Malloc(n * sizeof(Py_ssize_t))
    if p == NULL:
        raise MemoryError()
    return p


cdef signed char* _alloc_sc(Py_ssize_t n) except NULL:
    cdef signed char* p = <signed char*> PyMem_Malloc(n * sizeof(signed char))
    if p == NULL:
        raise MemoryError()
    return p


def star_scan(head_pows, gates, kmax, f_num):
    """See perdec._kernels_py.star_scan; identical contract and order."""
    cdef Py_ssize_t nb = len(head_pows)
    cdef Py_ssize_t size = len(f_num)
    cdef Py_ssize_t b, k, x, row_base, rows_total
    cdef Py_ssize_t* c_kmax = NULL
    cdef Py_ssize_t* row_off = NULL
    cdef Py_ssize_t* tab = NULL
    cdef signed char* gate = NULL
    cdef long long* values = NULL
    cdef Py_ssize_t* kvec = NULL
    cdef Py_ssize_t* head_row = NULL
    try:
        # block b's exponent k lives in row row_off[b] + k - 1 of both
        # tab (the head's power table) and gate (its premise bits over z)
        c_kmax = _alloc_sz(nb if nb else 1)
        row_off = _alloc_sz(nb + 1)
        row_off[0] = 0
        for b in range(nb):
            c_kmax[b] = kmax[b]
            row_off[b + 1] = row_off[b] + (c_kmax[b] if c_kmax[b] > 0 else 0)
        rows_total = row_off[nb] * size
        tab = _alloc_sz(rows_total if rows_total else 1)
        gate = _alloc_sc(rows_total if rows_total else 1)
        for b in range(nb):
            pows = head_pows[b]
            masks = gates[b]
            for k in range(1, c_kmax[b] + 1):
                row = pows[k]
                bits = masks[k]
                row_base = (row_off[b] + k - 1) * size
                for x in range(size):
                    tab[row_base + x] = row[x]
                    gate[row_base + x] = (bits >> x) & 1
        values = _alloc_ll(size if size else 1)
        for x in range(size):
            values[x] = f_num[x]
        kvec = _alloc_sz(nb if nb else 1)
        head_row = _alloc_sz(nb if nb else 1)
        return _star_loop(tab, gate, c_kmax, row_off, values, kvec,
                          head_row, nb, size)
    finally:
        PyMem_Free(c_kmax)
        PyMem_Free(row_off)
        PyMem_Free(tab)
        PyMem_Free(gate)
        PyMem_Free(values)
        PyMem_Free(kvec)
        PyMem_Free(head_row)


cdef _star_loop(Py_ssize_t* tab, signed char* gate, Py_ssize_t* kmax,
                Py_ssize_t* row_off, long long* values, Py_ssize_t* kvec,
                Py_ssize_t* head_row, Py_ssize_t nb, Py_ssize_t size):
    cdef Py_ssize_t b, z, pos, mask, w, applied, bits
    cdef long long value
    cdef bint gated, done
    # an empty exponent range scans nothing, and nb == 0 still scans once
    # with the empty exponent vector, matching itertools.product
    for b in range(nb):
        if kmax[b] < 1:
            return None
        kvec[b] = 1
    while True:
        for b in range(nb):
            head_row[b] = (row_off[b] + kvec[b] - 1) * size
        for z in range(size):
            gated = True
            for b in range(nb):
                if not gate[head_row[b] + z]:
                    gated = False
                    break
            if not gated:
                continue
            value = 0
            for mask in range(1 << nb):
                w = z
                bits = mask
                b = 0
                applied = 0
                while bits:
                    if bits & 1:
                        w = tab[head_row[b] + w]
                        applied += 1
                    bits >>= 1
                    b += 1
                if (nb - applied) & 1:
                    value -= values[w]
                else:
                    value += values[w]
            if value != 0:
                return (tuple([kvec[b] for b in range(nb)]), z, value)
        # odometer: last block advances fastest, mirroring itertools.product
        done = True
        for pos in range(nb - 1, -1, -1):
            if kvec[pos] < kmax[pos]:
                kvec[pos] += 1
                for b in range(pos + 1, nb):
                    kvec[b] = 1
                done = False
                break
        if done:
            return None


def compat_scan(pow_a, pow_b, f_num, bound, value_on_a):
    """See perdec._kernels_py.compat_scan; identical contract and order."""
    cdef Py_ssize_t size = len(f_num)
    cdef Py_ssize_t stride = size
    cdef Py_ssize_t x, k, n, total, base, p
    cdef int c_bound = bound
    cdef bint on_a = bool(value_on_a)
    cdef long long v
    cdef Py_ssize_t* ta = _alloc_sz((bound + 1) * size)
    cdef Py_ssize_t* tb = NULL
    cdef long long* values = NULL
    cdef Py_ssize_t* first_k = NULL
    cdef Py_ssize_t* first_n = NULL
    cdef long long* first_v = NULL
    cdef signed char* seen = NULL
    try:
        for k in range(bound + 1):
            row = pow_a[k]
            for x in range(size):
                ta[k * stride + x] = row[x]
        tb = _alloc_sz((bound + 1) * size)
        for k in range(bound + 1):
            row = pow_b[k]
            for x in range(size):
                tb[k * stride + x] = row[x]
        values = _alloc_ll(size)
        for x in range(size):
            values[x] = f_num[x]
        first_k = _alloc_sz(size)
        first_n = _alloc_sz(size)
        first_v = _alloc_ll(size)
        seen = _alloc_sc(size)
        for x in range(size):
            for p in range(size):
                seen[p] = 0
            for total in range(2 * c_bound + 1):
                k = total - c_bound
                if k < 0:
                    k = 0
                while k <= (total if total < c_bound else c_bound):
                    n = total - k
                    base = tb[n * stride + x]
                    p = ta[k * stride + base]
                    if on_a:
                        v = values[ta[k * stride + x]]
                    else:
                        v = values[base]
                    if not seen[p]:
                        seen[p] = 1
                        first_k[p] = k
                        first_n[p] = n
                        first_v[p] = v
                    elif first_v[p] != v:
                        return (x, k, n, first_k[p], first_n[p], v, first_v[p])
                    k += 1
        return None
    finally:
        PyMem_Free(ta)
        PyMem_Free(tb)
        PyMem_Free(values)
        PyMem_Free(first_k)
        PyMem_Free(first_n)
        PyMem_Free(seen)
        PyMem_Free(first_v)
