"""Dense reference Smith normal form: the elimination as it stood
before the row-list rewrite, one helper per elementary operation and
per matrix.  Only tests import it; it pins S, U and V bit for bit,
pivot rule and order of operations included.  It still tracks U^-1
through every row operation, which smith_normal_form no longer does,
and returns it next to the Smith form, so the inverse that homology
solves for when it writes down generators is pinned too."""

from slicetower.abelian import Mat, SmithForm


def reference_smith_normal_form(A: Mat) -> tuple[SmithForm, Mat]:
    """The Smith form of A and the inverse of its U."""
    S = Mat(A.r, A.c, A.a)
    r, c = S.r, S.c
    U, Uinv = Mat.identity(r), Mat.identity(r)
    V = Mat.identity(c)
    s = S.a

    def row_add(i: int, j: int, q: int) -> None:
        # row_i += q * row_j
        si, sj = s[i], s[j]
        for t in range(c):
            x = sj[t]
            if x:
                si[t] += q * x
        ui, uj = U.a[i], U.a[j]
        for t in range(U.c):
            x = uj[t]
            if x:
                ui[t] += q * x
        for t in range(Uinv.r):
            x = Uinv.a[t][i]
            if x:
                Uinv.a[t][j] -= q * x

    def row_swap(i: int, j: int) -> None:
        s[i], s[j] = s[j], s[i]
        U.a[i], U.a[j] = U.a[j], U.a[i]
        for t in range(Uinv.r):
            Uinv.a[t][i], Uinv.a[t][j] = Uinv.a[t][j], Uinv.a[t][i]

    def row_neg(i: int) -> None:
        s[i] = [-x for x in s[i]]
        U.a[i] = [-x for x in U.a[i]]
        for t in range(Uinv.r):
            Uinv.a[t][i] = -Uinv.a[t][i]

    def col_add(i: int, j: int, q: int) -> None:
        # col_i += q * col_j
        for t in range(r):
            x = s[t][j]
            if x:
                s[t][i] += q * x
        for t in range(V.r):
            x = V.a[t][j]
            if x:
                V.a[t][i] += q * x

    def col_swap(i: int, j: int) -> None:
        for t in range(r):
            s[t][i], s[t][j] = s[t][j], s[t][i]
        for t in range(V.r):
            V.a[t][i], V.a[t][j] = V.a[t][j], V.a[t][i]

    for t in range(min(r, c)):
        while True:
            # a unit entry is always an optimal pivot, so stop scanning at one
            pivot = None
            for i in range(t, r):
                row = s[i]
                for j in range(t, c):
                    v = row[j]
                    if v:
                        if v < 0:
                            v = -v
                        if pivot is None or v < pivot[0]:
                            pivot = (v, i, j)
                            if v == 1:
                                break
                if pivot is not None and pivot[0] == 1:
                    break
            if pivot is None:
                break
            _, pi, pj = pivot
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            if s[t][t] < 0:
                row_neg(t)
            p = s[t][t]
            dirty = False
            for i in range(t + 1, r):
                if s[i][t]:
                    row_add(i, t, -(s[i][t] // p))
                    if s[i][t]:
                        dirty = True
            for j in range(t + 1, c):
                if s[t][j]:
                    col_add(j, t, -(s[t][j] // p))
                    if s[t][j]:
                        dirty = True
            if dirty:
                continue
            if p == 1:
                break
            bad = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if s[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad, 1)
        if t < min(r, c) and s[t][t] == 0:
            break
    return SmithForm(S=S, U=U, V=V), Uinv
