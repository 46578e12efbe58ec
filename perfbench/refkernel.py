"""Reference kernel: exact Gauss-Jordan solve of a Hilbert system.

The benchmark divides a workload's solve time by the time of this kernel
run in the same process, interleaved with the workload, so that the
ratio cancels how fast the machine happens to be during the run.  The
kernel does the same kind of work as llct (big-integer `Fraction`
arithmetic) and imports nothing but the standard library, so no change
to llct can move it.
"""

from fractions import Fraction

HILBERT_N = 18


def hilbert_solve(n: int = HILBERT_N) -> list:
    """x with H x = (1, ..., 1) for the n x n Hilbert matrix H."""
    a = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(1)]
         for i in range(n)]
    for c in range(n):
        inv = 1 / a[c][c]
        row = [v * inv for v in a[c]]
        a[c] = row
        for r in range(n):
            f = a[r][c]
            if r != c and f:
                a[r] = [x - f * y for x, y in zip(a[r], row)]
    return [a[i][n] for i in range(n)]


def run(n: int = HILBERT_N) -> None:
    """One kernel pass, checked: the entries of H^-1 sum to n^2."""
    if sum(hilbert_solve(n)) != n * n:
        raise AssertionError("reference kernel returned a wrong solution")
