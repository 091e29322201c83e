"""Built-in stopword lists for the focus languages, plus file loading.

Lists are small sets of high-frequency function words, lowercase, meant
for the n-gram edge filter. A user-supplied file (one word per line,
``#`` comments allowed) overrides or extends these.
"""

from __future__ import annotations

from pathlib import Path

from .documents import read_utf8

_LISTS: dict[str, frozenset[str]] = {
    "eng": frozenset(
        """the a an and or but of to in on at for with by from as is are was
        were be been being it that this these those he she they we you i not
        no so if then than there their his her its our your my me him them us
        what which who whom do does did have has had will would can could
        shall should may might must about into over under again here when
        where why how all any both each few more most other some such only
        own same too very just because until while during before after above
        below up down out off""".split()
    ),
    "spa": frozenset(
        """el la los las un una unos unas y o pero de del a al en con por
        para sin sobre entre que como cuando donde es son era eran fue fueron
        ser estar está están se su sus le les lo mi mis tu tus nos nuestro
        nuestra yo tú él ella ellos ellas nosotros no sí ya más menos muy
        también este esta estos estas ese esa esos esas aquel aquella hay""".split()
    ),
    "cat": frozenset(
        """el la els les un una uns unes i o però de del dels a al als en amb
        per sense sobre entre que què com quan on és són era eren fou ser
        estar està estan es seu seva seus seves li ho hi em et ens us jo tu
        ell ella ells elles nosaltres no sí ja més menys molt també aquest
        aquesta aquests aquestes aquell aquella ha han""".split()
    ),
    "glg": frozenset(
        """o a os as un unha uns unhas e ou pero de do da dos das en no na
        nos nas con por para sen sobre entre que como cando onde é son era
        eran foi foron ser estar está están se seu súa seus súas lle lles me
        te nós vós eu ti el ela eles elas non si xa máis menos moi tamén
        este esta estes estas ese esa hai""".split()
    ),
    "fra": frozenset(
        """le la les un une des du de et ou mais à au aux en dans sur sous
        avec sans pour par entre que qui quoi dont où comme quand est sont
        était étaient être avoir a ont avait il elle ils elles on nous vous
        je tu ne pas non oui plus moins très aussi ce cet cette ces son sa
        ses leur leurs mon ma mes ton ta tes notre votre y se si""".split()
    ),
    "ces": frozenset(
        """a i v ve na za s se z ze k ke o u do od po pro při bez mezi nad
        pod před že aby když kde jak co kdo to ten ta ty je jsou byl byla
        bylo byli být má mají měl nebo ale ani až jen již už také tak jako
        který která které jeho její jejich můj tvůj náš váš si ano ne
        není""".split()
    ),
    "fin": frozenset(
        """ja tai mutta että kun jos koska kuin on ovat oli olivat olla ei en
        et emme ette eivät minä sinä hän me te he se ne tämä nämä tuo nuo
        joka jotka mikä mitä missä milloin miten kuka myös vain jo vielä nyt
        sitten siis eli sekä kanssa ilman yli ali ennen jälkeen""".split()
    ),
    "nob": frozenset(
        """og eller men at som er var være har hadde ha vil ville kan kunne
        skal skulle må måtte ikke jeg du han hun den det de vi dere seg sin
        sitt sine min mitt mine din ditt dine en ei et i på til fra med uten
        om over under mellom etter før når hvor hva hvem hvordan hvorfor så
        da nå her der også bare både""".split()
    ),
    "eus": frozenset(
        """eta edo baina ez bai da dira zen ziren izan du dute zuen zuten
        hau hori hura hauek horiek haiek ni zu gu zuek bera nire zure gure
        haren beren zer nor non noiz nola zein ere oso asko gutxi bat batzuk
        dela dago daude zegoen baino arte gabe buruz egin behar""".split()
    ),
    "ukr": frozenset(
        """і й та або але що як коли де хто це цей ця ці той ті є був була
        було були бути не ні так я ти він вона воно ми ви вони мій твій наш
        ваш його її їх у в на з із зі до від по за під над між про при без
        для через також вже ще тільки дуже""".split()
    ),
}


def get_stopwords(lang_code: str) -> frozenset[str]:
    """Stopwords for a language-script code like "spa_Latn"; empty if unknown."""
    if lang_code in _LISTS:
        return _LISTS[lang_code]
    base = lang_code.split("_", 1)[0]
    return _LISTS.get(base, frozenset())


def load_stopword_file(path: str | Path) -> frozenset[str]:
    words = set()
    for line in read_utf8(path).splitlines():
        word = line.strip()
        if word and not word.startswith("#"):
            words.add(word.lower())
    return frozenset(words)
