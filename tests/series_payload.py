"""The JSON form of a truncated series that `weights` payloads take: a
header and the present terms as [exponents, residue, precision] lists, with
residues as decimal strings."""


def series_payload(s) -> dict:
    return {
        "p": s.p,
        "nvars": s.nvars,
        "prec": s.prec,
        "degree_cap": s.degree_cap,
        "coeffs": sorted([list(i), str(c.residue), c.prec] for i, c in s.terms().items()),
    }
