"""Minimal self-contained SVG line plots for profile CSV output.

No plotting dependency and no timestamps: identical data produces
byte-identical files.
"""

from __future__ import annotations

from .formats import read_columns, write_text


_TICK_COUNT = 5


def _ticks(lo: float, hi: float):
    step = (hi - lo) / (_TICK_COUNT - 1)
    return [lo + i * step for i in range(_TICK_COUNT)]


def line_plot_svg(xs, ys, title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Polyline plot of one series as an SVG document string."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys) or not xs:
        raise ValueError("need matching non-empty series")
    w, h = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 50
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (w - ml - mr)

    def sy(y):
        return h - mb - (y - y_lo) / (y_hi - y_lo) * (h - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_esc(title)}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{sx(tx):.2f}" y1="{h - mb}" x2="{sx(tx):.2f}" '
            f'y2="{h - mb + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(tx):.2f}" y="{h - mb + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{ml - 5}" y1="{sy(ty):.2f}" x2="{ml}" y2="{sy(ty):.2f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{sy(ty):.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:.4g}</text>'
        )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{w - ml - mr}" height="{h - mt - mb}" '
        f'fill="none" stroke="black"/>'
    )
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" stroke-width="1.5"/>')
    parts.append(
        f'<text x="{w / 2:.1f}" y="{h - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_esc(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {h / 2:.1f})">{_esc(y_label)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def profile_csv_to_svg(csv_path, svg_path, title: str = "") -> None:
    """Plot |value| against |z| from a profile CSV."""
    re_z, im_z, re_v, im_v = read_columns(csv_path, ("re_z", "im_z", "re_val", "im_val"))
    xs = [abs(complex(*z)) for z in zip(re_z, im_z)]
    ys = [abs(complex(*v)) for v in zip(re_v, im_v)]
    write_text(svg_path, line_plot_svg(xs, ys, title=title, x_label="|z|", y_label="|value|"))
