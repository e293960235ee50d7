from triparts.bulk import check_box_bijection, partitions_array
from triparts.ehrhart import box_decompose
from triparts.partitions import count_bruteforce, enumerate_partitions


def test_partitions_array_matches_enumeration():
    for n in range(0, 120):
        l1, l2, l3 = partitions_array(n)
        bulk = sorted(zip(l1.tolist(), l2.tolist(), l3.tolist()))
        assert bulk == sorted(enumerate_partitions(n))
        assert l1.size == count_bruteforce(n)


def test_partitions_array_ordering():
    l1, l2, l3 = partitions_array(40)
    keys = list(zip(l3.tolist(), l2.tolist()))
    assert keys == sorted(keys)


def test_box_decompose_on_arrays_matches_scalar():
    for n in (0, 2, 3, 19, 20, 57, 100):
        l1, l2, l3 = partitions_array(n)
        (m1, m2, m3), (t1, t2, t3) = box_decompose((l1, l2, l3))
        assert m1.dtype == t3.dtype == l1.dtype
        for i in range(l1.size):
            lam = (int(l1[i]), int(l2[i]), int(l3[i]))
            mu, tau = box_decompose(lam)
            assert mu == (int(m1[i]), int(m2[i]), int(m3[i]))
            assert tau == (int(t1[i]), int(t2[i]), int(t3[i]))


def test_check_box_bijection_counts():
    assert check_box_bijection(2) == 0
    assert check_box_bijection(20) == 33
    total = sum(check_box_bijection(n) for n in range(200))
    assert total == sum(count_bruteforce(n) for n in range(200))
