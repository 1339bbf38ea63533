"""PH through the direct-sum periodic complex, the cross-check of PH.

functors.PH reads PH off the CH table, as the colimit of CH under S.
PH_periodic sums the cohomology of the periodic bands instead, on a loop
mixed complex of its own that reaches the degrees each band reads, so it
shares neither the PH table nor the context's complex.
"""

from cdgacyc.complexes import band_complex
from cdgacyc.functors import CohomologyTable


def PH_periodic(ctx):
    """PH via the direct-sum periodic complex, weight by weight.

    PC splits as the direct sum of the finite effective-weight bands of
    the 2-periodic complex, so its cohomology is the sum over w of the
    band cohomologies.  The sum is cut off after two consecutive zero
    weights past the structural markers, and a row is uncertified if it
    reaches weight cutoff + 5 first; certification additionally needs the
    base vanishing-window certificate.  The mixed complex is built
    through max(top, cutoff + 1) and rebuilt only when a band reads
    past it.
    """
    cutoff = ctx.cutoff
    bound, base_cert = ctx.base_bound()
    table = CohomologyTable("PHper")
    M = None
    for r in range(cutoff + 1):
        weights = {}
        w = -(r // 2) - 1
        zeros = 0
        ran_out = False
        while True:
            w += 1
            if w > cutoff + 4:
                ran_out = True
                break
            top = max(r + 1, r + 1 + 2 * w)
            if M is None or M.top < top:
                M = ctx.loop.mixed_complex(max(top, cutoff + 1))
            band = band_complex(M, w, "periodic", r - 1, r + 1)
            d = band.cohomology(r).dim
            if d:
                weights[w] = d
                zeros = 0
            else:
                zeros += 1
            if w >= 0 and r + 2 * w > bound and zeros >= 2:
                break
        table.set_row(
            r,
            sum(weights.values()),
            weights,
            certified=base_cert and not ran_out,
        )
    return table
