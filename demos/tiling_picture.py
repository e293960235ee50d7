"""
Drawing the triangle tiling as SVG
==================================

Writes tiling_20.svg to the current directory.
"""

from triparts.cli import render_tiling_svg

# project P(n,3) to the plane via (l2 - l3, l3) and color each partition
# by its box remainder; the six color groups are exactly the translated
# quotient triangles.
n = 20
svg = render_tiling_svg(n)

out = "tiling_%d.svg" % n
with open(out, "w", encoding="utf-8") as fp:
    fp.write(svg)

print("wrote", out)
print("circles:", svg.count("<circle"))
print("legend entries:")
for line in svg.splitlines():
    if "partitions</text>" in line:
        start = line.index("mu=")
        print("  " + line[start:line.index("</text>")])
