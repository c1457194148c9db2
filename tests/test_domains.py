from fractions import Fraction

import pytest

from chebydev.domains import ball, domain_from_label, simplex, simplex_face, sphere
from chebydev.polycore import Poly, PolyError
from chebydev.signatures import Certificate, SignedPointSet

TOL = 1e-12
IN, OUT = TOL / 4, 2 * TOL   # offsets just inside and just outside the tolerance


@pytest.mark.parametrize("domain,point,inside", [
    (simplex(3), (0.5, 0.5, 0.0), True),
    (simplex(3), (0.5, 0.5 + IN, 0.0), True),
    (simplex(3), (0.5, 0.5 + OUT, 0.0), False),
    (simplex(3), (-IN, 0.5, 0.0), True),
    (simplex(3), (-OUT, 0.5, 0.0), False),
    (ball(3), (0.0, 1.0, 0.0), True),
    (ball(3), (0.0, 1.0 + IN, 0.0), True),
    (ball(3), (0.0, 1.0 + OUT, 0.0), False),
    (ball(3), (0.0, 0.0, 0.0), True),
    (sphere(3), (0.0, 0.0, 1.0), True),
    (sphere(3), (0.0, 0.0, 1.0 + IN), True),
    (sphere(3), (0.0, 0.0, 1.0 + OUT), False),
    (sphere(3), (0.0, 0.0, 1.0 - IN), True),
    (sphere(3), (0.0, 0.0, 1.0 - OUT), False),
    (sphere(3), (0.0, 0.0, 0.0), False),
    (simplex_face(3), (0.5, 0.5), True),
    (simplex_face(3), (0.5, 0.5 + IN), True),
    (simplex_face(3), (0.5, 0.5 + OUT), False),
    (simplex_face(3), (-IN, 1.0), True),
    (simplex_face(3), (-OUT, 1.0), False),
])
def test_contains_at_the_boundary(domain, point, inside):
    assert domain.contains(point, tol=TOL) is inside


@pytest.mark.parametrize("domain", [simplex(3), ball(3), sphere(3), simplex_face(3)])
def test_contains_rejects_a_point_of_the_wrong_length(domain):
    n = domain.nvars
    assert domain.contains((0.0,) * (n - 1) + (1.0,))
    assert not domain.contains((1.0,) + (0.0,) * n)
    assert not domain.contains((1.0,) + (0.0,) * (n - 2))


def test_certificate_rejects_support_points_of_the_wrong_length():
    half = Fraction(1, 2)
    with pytest.raises(PolyError, match="outside simplex"):
        Certificate(target=Poly.monomial((1, 1, 1)), candidate=Poly.monomial((1, 1, 1)),
                    level=Fraction(1), degree=2, domain=simplex(3),
                    support=SignedPointSet([(half, half)], [1], [Fraction(1)]))


@pytest.mark.parametrize("domain", [simplex(1), simplex(4), ball(2), ball(5), sphere(2),
                                    sphere(4), simplex_face(2), simplex_face(5)])
def test_label_round_trips(domain):
    assert domain_from_label(domain.label()) == domain
